package campaign_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/campaign"
)

// TestShardedCampaignByteIdentical pins the sharding contract: running every
// cell independently through RunCellIndex — each on its own engine and
// registry, the way different replicas would — then merging in plan order
// renders the report byte-for-byte identical to the monolithic oracle loop
// (monolithic_test.go), which shares one emulator per platform.
func TestShardedCampaignByteIdentical(t *testing.T) {
	mono := newEngine(4)
	res, err := mono.MonolithicRun(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	res.Write(&want)

	// A coordinator resolves the plan once...
	coord := newEngine(1)
	p, err := coord.Prepare(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCells() != res.Plan.Cells() {
		t.Fatalf("NumCells = %d, plan has %d", p.NumCells(), res.Plan.Cells())
	}
	// ...and each cell runs on a "replica" with no shared state beyond the
	// spec, travelling as a serialized result frame.
	frames := make([][]byte, p.NumCells())
	for i := range frames {
		replica := newEngine(1)
		rp, err := replica.Prepare(testSpec())
		if err != nil {
			t.Fatal(err)
		}
		score, err := replica.RunCellIndex(context.Background(), rp, i)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if frames[i], err = campaign.EncodeCell(score); err != nil {
			t.Fatalf("encode cell %d: %v", i, err)
		}
	}
	cells := make([]campaign.CellScore, len(frames))
	for i, frame := range frames {
		var err error
		if cells[i], err = campaign.DecodeCell(frame); err != nil {
			t.Fatalf("decode cell %d: %v", i, err)
		}
	}
	merged, err := campaign.Merge(p, cells)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	merged.Write(&got)
	if got.String() != want.String() {
		t.Errorf("sharded report differs from monolithic run:\n--- monolithic ---\n%s\n--- sharded ---\n%s",
			want.String(), got.String())
	}
}

// TestCellPointOrder pins the plan-index convention every replica must agree
// on: platforms outermost, then workloads, then models — the same nesting
// the monolithic oracle loop iterates.
func TestCellPointOrder(t *testing.T) {
	eng := newEngine(1)
	p, err := eng.Prepare(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for i := 0; i < p.NumCells(); i++ {
		pt, wp, kind := p.CellPoint(i)
		key := pt.Env + "/" + wp.Key() + "/" + kind
		if seen[key] {
			t.Fatalf("cell %d repeats %s", i, key)
		}
		seen[key] = true
		// Models vary fastest: consecutive cells share a platform until the
		// model axis wraps.
		if i > 0 && i%len(testSpec().Models) != 0 {
			prevPt, _, _ := p.CellPoint(i - 1)
			if prevPt.Env != pt.Env {
				t.Fatalf("cell %d changed platform mid model sweep", i)
			}
		}
	}
	if len(seen) != p.NumCells() {
		t.Fatalf("%d distinct cells, plan has %d", len(seen), p.NumCells())
	}
	if _, _, err := runCellOutOfRange(&eng, p); err == nil {
		t.Fatal("RunCellIndex past the grid succeeded")
	}
}

func runCellOutOfRange(eng *campaign.Engine, p *campaign.Prepared) (campaign.CellScore, bool, error) {
	score, err := eng.RunCellIndex(context.Background(), p, p.NumCells())
	return score, err == nil, err
}
