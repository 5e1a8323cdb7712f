package robust_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/robust"
)

// TestShardedRobustnessByteIdentical pins the sharding contract for the
// Monte Carlo path: each cell scored and stabilised on its own engine and
// registry (the way different replicas would), frames gob-encoded across the
// wire, merged in plan order — byte-for-byte the monolithic oracle loop's
// report (monolithic_test.go).
func TestShardedRobustnessByteIdentical(t *testing.T) {
	mono := newEngine(4)
	res, err := mono.MonolithicRun(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	res.Write(&want)

	coord := newEngine(1)
	p, err := coord.Prepare(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][]byte, p.NumCells())
	for i := range frames {
		replica := newEngine(1)
		rp, err := replica.Prepare(testSpec())
		if err != nil {
			t.Fatal(err)
		}
		prog := &obs.Progress{}
		cell, err := replica.RunCellIndex(context.Background(), rp, i, prog)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		// Trial-level progress flowed through the per-cell tracker.
		if snap := prog.Snapshot(); snap.TrialsUsed == 0 || snap.TrialBudget == 0 {
			t.Fatalf("cell %d progress = %+v", i, snap)
		}
		// Frames are gob because stability records carry NaN sentinels; the
		// round trip must preserve them.
		if frames[i], err = robust.EncodeCell(cell); err != nil {
			t.Fatalf("encode cell %d: %v", i, err)
		}
	}
	cells := make([]robust.CellResult, len(frames))
	for i, frame := range frames {
		var err error
		if cells[i], err = robust.DecodeCell(frame); err != nil {
			t.Fatalf("decode cell %d: %v", i, err)
		}
		if !cells[i].HasStab {
			t.Fatalf("cell %d lost its stability record in transit", i)
		}
	}
	merged, err := robust.Merge(p, cells)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	merged.Write(&got)
	if got.String() != want.String() {
		t.Errorf("sharded robustness report differs from monolithic run:\n--- monolithic ---\n%s\n--- sharded ---\n%s",
			want.String(), got.String())
	}
}

// TestShardedTrialsZeroSkipsStabilisation: with the robustness axis disabled
// a cell is just its base campaign score, and the merged report reduces to
// the campaign report exactly as the monolithic oracle loop does.
func TestShardedTrialsZeroSkipsStabilisation(t *testing.T) {
	spec := robust.Spec{Spec: baseSpec()}
	mono := newEngine(2)
	res, err := mono.MonolithicRun(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	res.Write(&want)

	eng := newEngine(1)
	p, err := eng.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]robust.CellResult, p.NumCells())
	for i := range cells {
		if cells[i], err = eng.RunCellIndex(context.Background(), p, i, nil); err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if cells[i].HasStab {
			t.Fatalf("cell %d stabilised despite trials=0", i)
		}
	}
	merged, err := robust.Merge(p, cells)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	merged.Write(&got)
	if got.String() != want.String() {
		t.Errorf("trials=0 sharded report differs:\n--- monolithic ---\n%s\n--- sharded ---\n%s",
			want.String(), got.String())
	}
}
