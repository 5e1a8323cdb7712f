package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Fingerprint identifies the host and the code a result was measured on, so
// two results are only ever compared when they share CPU, core count, Go
// release and source.
type Fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
}

func hostFingerprint(root string) Fingerprint {
	fp := Fingerprint{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		SourceHash: sourceHash(root),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			fp.Commit = rev
			if dirty {
				fp.Commit += "-dirty"
			}
		}
	}
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceHash digests the Go sources, module files and golden snapshots under
// root. It stands in for the commit where the tree is not a git checkout.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || strings.Contains(path, "testdata") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\n", rel)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// procStatusKB reads one "Key:  value kB" field of /proc/<pid>/status, in kB.
func procStatusKB(pid, key string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && k == key {
			f := strings.Fields(v)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("%s not in /proc/%s/status", key, pid)
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB(pid string) (float64, error) {
	kb, err := procStatusKB(pid, "VmHWM")
	return kb / 1024, err
}

// rssInterval is how often sampleRSS reads the resident set.
const rssInterval = 50 * time.Millisecond

// sampleRSS reads the process's resident set (VmRSS) every rssInterval
// until the returned stop is called; stop waits for the sampler to exit and
// returns the median sample in MB. The peak (VmHWM) is a maximum that the
// garbage collector's timing alone moves by a third between identical runs;
// the median over the window is what a change to memory use moves.
func sampleRSS(pid string) (stop func() (float64, error)) {
	quit := make(chan struct{})
	done := make(chan struct{})
	var samples []float64
	var firstErr error
	go func() {
		defer close(done)
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			kb, err := procStatusKB(pid, "VmRSS")
			if err != nil {
				firstErr = err
				return
			}
			samples = append(samples, kb/1024)
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	return func() (float64, error) {
		close(quit)
		<-done
		if firstErr != nil {
			return 0, firstErr
		}
		return Median(samples), nil
	}
}

// clockTicks is USER_HZ, which Linux fixes at 100 for /proc accounting.
const clockTicks = 100

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%s/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	// utime and stime are fields 14 and 15 of stat, 12 and 13 after ')'.
	u, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu times in /proc/%s/stat", pid)
	}
	return (u + st) / clockTicks, nil
}
