package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachCellCoversAllCells(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		n := 37
		hit := make([]int32, n)
		if err := ForEachCell(workers, n, func(i int) error {
			atomic.AddInt32(&hit[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("workers=%d: cell %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestForEachCellBoundsWorkers(t *testing.T) {
	const workers, n = 3, 40
	var cur, peak int32
	var mu sync.Mutex
	err := ForEachCell(workers, n, func(i int) error {
		c := atomic.AddInt32(&cur, 1)
		mu.Lock()
		if c > peak {
			peak = c
		}
		mu.Unlock()
		atomic.AddInt32(&cur, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > workers {
		t.Errorf("observed %d concurrent cells, pool bound is %d", peak, workers)
	}
}

func TestForEachCellReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEachCell(workers, 20, func(i int) error {
			if i == 7 || i == 13 {
				return fmt.Errorf("cell %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "cell 7 failed" {
			t.Errorf("workers=%d: err = %v, want cell 7's", workers, err)
		}
	}
	if err := ForEachCell(4, 0, func(int) error { return errors.New("no") }); err != nil {
		t.Errorf("n=0: err = %v", err)
	}
}

// TestForEachCellRecoversPanics pins that a panicking cell fails the run
// with that cell's error instead of killing the process, on the worker
// goroutines and on the single-worker path alike, with the same text.
func TestForEachCellRecoversPanics(t *testing.T) {
	var texts []string
	for _, workers := range []int{2, 1} {
		err := ForEachCellCtx(context.Background(), workers, 4, func(i int) error {
			if i == 1 {
				panic("cell boom")
			}
			return nil
		})
		var cp *CellPanic
		if !errors.As(err, &cp) {
			t.Fatalf("workers=%d: err = %v, want a *CellPanic", workers, err)
		}
		if cp.Cell != 1 || cp.Value != "cell boom" {
			t.Errorf("workers=%d: panic of cell %d with %v, want cell 1 with \"cell boom\"", workers, cp.Cell, cp.Value)
		}
		if !bytes.Contains(cp.Stack, []byte("TestForEachCellRecoversPanics")) {
			t.Errorf("workers=%d: stack does not reach the panicking cell:\n%s", workers, cp.Stack)
		}
		texts = append(texts, err.Error())
	}
	if texts[0] != texts[1] {
		t.Errorf("error text depends on the worker count: %q vs %q", texts[0], texts[1])
	}
	// A lower-index plain error still wins over a panic.
	for _, workers := range []int{1, 2} {
		err := ForEachCell(workers, 4, func(i int) error {
			switch i {
			case 0:
				return errors.New("cell 0 failed")
			case 1:
				panic("cell boom")
			}
			return nil
		})
		if err == nil || err.Error() != "cell 0 failed" {
			t.Errorf("workers=%d: err = %v, want cell 0's", workers, err)
		}
	}
}

func TestCellSeedDeterministicAndDecorrelated(t *testing.T) {
	if CellSeed(42, "suite/analytic", 3) != CellSeed(42, "suite/analytic", 3) {
		t.Error("same triple yields different seeds")
	}
	seen := map[int64]string{}
	for _, study := range []string{"suite/analytic", "suite/profile", "ablation/full-profile"} {
		for cell := 0; cell < 54; cell++ {
			s := CellSeed(42, study, cell)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s/%d vs %s", study, cell, prev)
			}
			seen[s] = fmt.Sprintf("%s/%d", study, cell)
		}
	}
}

func TestForEachCellCtxCancelled(t *testing.T) {
	// An already-cancelled context runs nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := ForEachCellCtx(ctx, workers, 20, func(i int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if workers == 1 && ran.Load() != 0 {
			t.Errorf("workers=1: %d cells ran under a cancelled context", ran.Load())
		}
	}

	// Cancelling mid-run stops scheduling new cells and reports ctx.Err().
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := ForEachCellCtx(ctx, workers, 1000, func(i int) error {
			if ran.Add(1) == 5 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); n >= 1000 {
			t.Errorf("workers=%d: all %d cells ran despite cancellation", workers, n)
		}
	}

	// A cell error still wins over the cancellation it caused.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	err := ForEachCellCtx(ctx2, 1, 10, func(i int) error {
		if i == 3 {
			cancel2()
			return fmt.Errorf("cell 3 failed")
		}
		return nil
	})
	if err == nil || err.Error() != "cell 3 failed" {
		t.Errorf("err = %v, want cell 3's", err)
	}
}

// TestRunnerCtxCancelsLabStudies exercises the Lab.WithContext path: a
// cancelled view aborts suite studies with ctx.Err() instead of results.
func TestRunnerCtxCancelsLabStudies(t *testing.T) {
	l, err := NewLab(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := l.WithContext(ctx).RunSuite("analytic"); !errors.Is(err, context.Canceled) {
		t.Errorf("RunSuite on cancelled lab view: err = %v, want context.Canceled", err)
	}
	// The original lab is unaffected and still works.
	if _, err := l.RunSuite("analytic"); err != nil {
		t.Errorf("RunSuite on original lab: %v", err)
	}
}

// studyTranscript writes a representative batch of studies — suite cells,
// breakdown cells, shape cells and campaign-figure cells — to one buffer.
func studyTranscript(t *testing.T, l *Lab) []byte {
	t.Helper()
	var buf bytes.Buffer
	l.Table1().Write(&buf)
	for _, n := range []int{2000, 3000} {
		c, err := l.CompareHCPAMCPA("analytic", n)
		if err != nil {
			t.Fatal(err)
		}
		c.Write(&buf)
	}
	fig2, err := l.Figure2Java(2)
	if err != nil {
		t.Fatal(err)
	}
	WriteErrorSeries(&buf, "fig2", fig2)
	fig3, err := l.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	fig3.Write(&buf)
	fig4, err := l.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	fig4.Write(&buf)
	breakdown, err := l.TimeBreakdown()
	if err != nil {
		t.Fatal(err)
	}
	WriteBreakdown(&buf, breakdown)
	shapes, err := l.ShapeStudy()
	if err != nil {
		t.Fatal(err)
	}
	WriteShapes(&buf, shapes)
	return buf.Bytes()
}

// TestStudyDeterminismAcrossWorkerCounts is the engine's core contract:
// study reports are byte-identical at workers=1 and workers=8, because
// every cell's noise stream is seeded from (study, cell index), not from
// execution order.
func TestStudyDeterminismAcrossWorkerCounts(t *testing.T) {
	transcripts := make([][]byte, 2)
	for i, workers := range []int{1, 8} {
		cfg := DefaultConfig()
		cfg.Parallelism = workers
		l, err := NewLab(cfg)
		if err != nil {
			t.Fatal(err)
		}
		transcripts[i] = studyTranscript(t, l)
	}
	if !bytes.Equal(transcripts[0], transcripts[1]) {
		t.Errorf("study transcripts differ between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			transcripts[0], transcripts[1])
	}
}

// TestStandaloneStudyDeterminism covers the studies that assemble their own
// environments (and thus their own Runner) rather than going through Lab.
func TestStandaloneStudyDeterminism(t *testing.T) {
	transcripts := make([][]byte, 2)
	for i, workers := range []int{1, 8} {
		cfg := DefaultConfig()
		cfg.Parallelism = workers
		var buf bytes.Buffer
		sens, err := NoiseSensitivity(cfg, []float64{0, 0.03})
		if err != nil {
			t.Fatal(err)
		}
		WriteSensitivity(&buf, sens)
		envs, err := EnvironmentStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		WriteEnvironments(&buf, envs)
		transcripts[i] = buf.Bytes()
	}
	if !bytes.Equal(transcripts[0], transcripts[1]) {
		t.Errorf("standalone study transcripts differ between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			transcripts[0], transcripts[1])
	}
}
