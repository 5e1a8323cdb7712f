package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/store"
)

// storeJobs is how many job lifecycles the store ladder runs.
const storeJobs = 40

// storeOps times each store operation a sharded durable job goes through —
// submit, claim, plan its cells, claim a cell, complete it while claiming
// the next, complete the job — on a fresh store directory. Each is one WAL
// append and fsync; the median over storeJobs lifecycles is reported.
func storeOps(e *Env) error {
	if err := os.MkdirAll(filepath.Join(e.Build, "tmp"), 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(filepath.Join(e.Build, "tmp"), "store-ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()

	const holder, cells = "bench", 3
	ttl := time.Minute
	payload := []byte(fmt.Sprintf(`{"seed":%d}`, e.Seed))
	ops := map[string][]float64{}
	timed := func(op string, fn func() error) error {
		t := time.Now()
		err := fn()
		ops[op] = append(ops[op], float64(time.Since(t).Nanoseconds())/1e3)
		if err != nil {
			return fmt.Errorf("store %s: %w", op, err)
		}
		return nil
	}
	for i := 0; i < storeJobs; i++ {
		var job store.JobRecord
		if err := timed("submit", func() (err error) {
			job, err = st.SubmitJob("robustness", payload)
			return err
		}); err != nil {
			return err
		}
		if err := timed("claim", func() error {
			j, ok, err := st.Claim(holder, ttl)
			if err == nil && (!ok || j.ID != job.ID) {
				err = fmt.Errorf("claimed %q (ok %v), want %q", j.ID, ok, job.ID)
			}
			return err
		}); err != nil {
			return err
		}
		if err := timed("plancells", func() error { return st.PlanCells(job.ID, cells) }); err != nil {
			return err
		}
		var cell store.CellRecord
		if err := timed("claimcell", func() error {
			c, ok, err := st.ClaimCell(holder, ttl, job.ID)
			if err == nil && !ok {
				err = fmt.Errorf("no cell to claim")
			}
			cell = c
			return err
		}); err != nil {
			return err
		}
		for c := 0; c < cells; c++ {
			last := c == cells-1
			if err := timed("completecellandclaim", func() error {
				next, ok, err := st.CompleteCellAndClaim(job.ID, cell.Index, holder, []byte("frame"), "", nil, !last, job.ID, ttl)
				if err == nil && !last && !ok {
					err = fmt.Errorf("no next cell")
				}
				cell = next
				return err
			}); err != nil {
				return err
			}
		}
		if err := timed("complete", func() error { return st.Complete(job.ID, holder, "report", nil) }); err != nil {
			return err
		}
	}
	for _, op := range []string{"submit", "claim", "plancells", "claimcell", "completecellandclaim", "complete"} {
		e.Set("store.op_us."+op, Median(ops[op]), "us")
	}
	return nil
}
