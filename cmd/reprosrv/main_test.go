package main

import (
	"net/http"
	"testing"

	"repro/internal/service"
)

// TestServerTimeouts pins the listeners' connection budgets: the API server
// bounds every phase, with a write budget past the longest ?watch, and the
// metrics server bounds the header read only, so pprof can stream.
func TestServerTimeouts(t *testing.T) {
	api := apiServer(":0", http.NotFoundHandler())
	for name, d := range map[string]int64{
		"ReadHeaderTimeout": int64(api.ReadHeaderTimeout),
		"ReadTimeout":       int64(api.ReadTimeout),
		"WriteTimeout":      int64(api.WriteTimeout),
		"IdleTimeout":       int64(api.IdleTimeout),
	} {
		if d <= 0 {
			t.Errorf("API server %s is unset", name)
		}
	}
	if api.WriteTimeout <= service.MaxWatch {
		t.Errorf("API WriteTimeout %s does not exceed the watch cap %s", api.WriteTimeout, service.MaxWatch)
	}
	m := metricsServer(":0", http.NotFoundHandler())
	if m.ReadHeaderTimeout <= 0 {
		t.Error("metrics server ReadHeaderTimeout is unset")
	}
	if m.ReadTimeout != 0 || m.WriteTimeout != 0 {
		t.Errorf("metrics server bounds the body (%s) or the write (%s); pprof streams would be cut", m.ReadTimeout, m.WriteTimeout)
	}
}
