package simgrid

// This file keeps the map-accumulating parallel-task fills — FillPtask and
// FillTransfers as they were before the fills wrote the solver's sorted
// sparse form directly — as a test-only reference, and checks the sparse
// fills against it bit for bit on random and fuzzed inputs.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/platform"
)

// refAction is what the reference fills produce: a dense usage map plus
// the action's delay and work.
type refAction struct {
	Name        string
	Delay, Work float64
	Usage       map[int]float64
}

// refFillPtask is the map-accumulating FillPtask, verbatim.
func (n *Net) refFillPtask(a *refAction, hosts []int, comp []float64, bytes [][]float64) {
	name := a.Name
	if comp != nil && len(comp) != len(hosts) {
		panic(fmt.Sprintf("simgrid: ptask %q: comp length %d != hosts %d", name, len(comp), len(hosts)))
	}
	if bytes != nil && len(bytes) != len(hosts) {
		panic(fmt.Sprintf("simgrid: ptask %q: bytes rows %d != hosts %d", name, len(bytes), len(hosts)))
	}
	usage := refResetUsage(a)
	latency := 0.0
	for i, h := range hosts {
		if comp != nil && comp[i] > 0 {
			usage[n.CPU(h)] += comp[i]
		}
		if bytes == nil {
			continue
		}
		if len(bytes[i]) != len(hosts) {
			panic(fmt.Sprintf("simgrid: ptask %q: bytes row %d has %d cols, want %d",
				name, i, len(bytes[i]), len(hosts)))
		}
		for j, b := range bytes[i] {
			if b <= 0 || i == j {
				continue // intra-host transfers are free, as in SimGrid clusters
			}
			dst := hosts[j]
			if h == dst {
				continue
			}
			if l := n.refAddTransfer(usage, h, dst, b); l > latency {
				latency = l
			}
		}
	}
	a.Delay = latency
	a.Work = 1
}

// refFillTransfers is the map-accumulating FillTransfers, verbatim.
func (n *Net) refFillTransfers(a *refAction, transfers []Transfer) {
	usage := refResetUsage(a)
	latency := 0.0
	for _, t := range transfers {
		if t.Bytes <= 0 || t.Src == t.Dst {
			continue
		}
		if l := n.refAddTransfer(usage, t.Src, t.Dst, t.Bytes); l > latency {
			latency = l
		}
	}
	a.Delay = latency
	a.Work = 1
}

func (n *Net) refAddTransfer(usage map[int]float64, src, dst int, b float64) float64 {
	usage[n.Uplink(src)] += b
	usage[n.Downlink(dst)] += b
	if n.HasBackplane() {
		usage[n.Backplane()] += b
	}
	return n.RouteLatency(src, dst)
}

func refResetUsage(a *refAction) map[int]float64 {
	if a.Usage == nil {
		a.Usage = make(map[int]float64)
	} else {
		clear(a.Usage)
	}
	return a.Usage
}

// refSparse converts a reference usage map into the solver's sparse form
// the way the engine used to on Add: ascending resources, zeros dropped.
func refSparse(usage map[int]float64) ([]int, []float64) {
	var res []int
	for r, u := range usage {
		if u != 0 {
			res = append(res, r)
		}
	}
	sort.Ints(res)
	use := make([]float64, len(res))
	for k, r := range res {
		use[k] = usage[r]
	}
	return res, use
}

// sameSparse reports, naming the first difference, whether two sparse forms
// and their delay and work agree bit for bit.
func sameSparse(res []int, use []float64, delay, work float64, a *Action) error {
	if math.Float64bits(a.Delay) != math.Float64bits(delay) || math.Float64bits(a.Work) != math.Float64bits(work) {
		return fmt.Errorf("delay/work %g/%g, want %g/%g", a.Delay, a.Work, delay, work)
	}
	if len(a.v.res) != len(res) || len(a.v.use) != len(res) {
		return fmt.Errorf("sparse form %v/%v, want %v/%v", a.v.res, a.v.use, res, use)
	}
	for k := range res {
		if a.v.res[k] != res[k] || math.Float64bits(a.v.use[k]) != math.Float64bits(use[k]) {
			return fmt.Errorf("entry %d: resource %d = %g, want resource %d = %g",
				k, a.v.res[k], a.v.use[k], res[k], use[k])
		}
	}
	return nil
}

// fillCase is one decoded parallel-task input: a host list with repeats
// (intra-host pairs), comp and bytes that may be nil or hold zero and
// negative entries, and the bytes matrix listed row-major as transfers
// (self-transfers included).
type fillCase struct {
	backplane bool
	hosts     []int
	comp      []float64
	bytes     [][]float64
	transfers []Transfer
}

// fillAmount maps a byte to an amount: zero, negative, or a positive value
// whose sums round (thirds of a million), so summation order shows.
func fillAmount(b byte) float64 {
	switch b % 4 {
	case 0:
		return 0
	case 1:
		return -float64(b)
	default:
		return float64(b) * 1e6 / 3
	}
}

// decodeFill turns arbitrary bytes into a fillCase; a short input reads as
// zeros past its end.
func decodeFill(data []byte) fillCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	flags := next()
	c := fillCase{backplane: flags&1 != 0}
	k := 1 + int(flags>>3)%12
	c.hosts = make([]int, k)
	for i := range c.hosts {
		c.hosts[i] = int(next() % 8)
	}
	if flags&2 != 0 {
		c.comp = make([]float64, k)
		for i := range c.comp {
			c.comp[i] = fillAmount(next())
		}
	}
	if flags&4 != 0 {
		c.bytes = make([][]float64, k)
		for i := range c.bytes {
			c.bytes[i] = make([]float64, k)
			for j := range c.bytes[i] {
				c.bytes[i][j] = fillAmount(next())
				if c.bytes[i][j] != 0 {
					c.transfers = append(c.transfers, Transfer{Src: c.hosts[i], Dst: c.hosts[j], Bytes: c.bytes[i][j]})
				}
			}
		}
	}
	return c
}

// fillNets are the two layouts under test: without and with a backplane.
var fillNets = func() [2]*Net {
	var nets [2]*Net
	for i, bw := range []float64{0, 4e9} {
		c := platform.Bayreuth()
		c.BackplaneBandwidth = bw
		n, err := NewNet(c)
		if err != nil {
			panic(err)
		}
		nets[i] = n
	}
	return nets
}()

// checkSparseFill compares FillPtask and FillTransfers against the map
// reference on one input, refilling actions that already hold usage, and
// checks that the row-major transfer list reproduces FillPtask with comp
// nil.
func checkSparseFill(c fillCase) error {
	n := fillNets[0]
	if c.backplane {
		n = fillNets[1]
	}
	stale := func() *Action {
		a := &Action{}
		a.AddUsage(n.Uplink(3), 7)
		a.AddUsage(n.CPU(31), 1)
		return a
	}

	var ref refAction
	n.refFillPtask(&ref, c.hosts, c.comp, c.bytes)
	got := stale()
	n.FillPtask(got, c.hosts, c.comp, c.bytes)
	res, use := refSparse(ref.Usage)
	if err := sameSparse(res, use, ref.Delay, ref.Work, got); err != nil {
		return fmt.Errorf("FillPtask: %w", err)
	}

	n.refFillTransfers(&ref, c.transfers)
	sparse := stale()
	n.FillTransfers(sparse, c.transfers)
	res, use = refSparse(ref.Usage)
	if err := sameSparse(res, use, ref.Delay, ref.Work, sparse); err != nil {
		return fmt.Errorf("FillTransfers: %w", err)
	}

	if c.bytes != nil {
		dense := stale()
		n.FillPtask(dense, c.hosts, nil, c.bytes)
		if err := sameSparse(dense.v.res, dense.v.use, dense.Delay, dense.Work, sparse); err != nil {
			return fmt.Errorf("row-major FillTransfers vs FillPtask: %w", err)
		}
	}
	return nil
}

// TestSparseFillMatchesMapFill differentially checks the sparse fills
// against the map reference on random inputs covering repeated hosts, zero
// and negative amounts, self-transfers, nil comp or bytes, and backplane on
// and off.
func TestSparseFillMatchesMapFill(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 1+12+12+144)
	for trial := 0; trial < 2000; trial++ {
		rng.Read(data)
		if err := checkSparseFill(decodeFill(data)); err != nil {
			t.Fatalf("trial %d (input %x): %v", trial, data, err)
		}
	}
}

func FuzzSparseFill(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x07, 0, 1, 1, 2, 3, 6, 5, 2, 2, 3, 3, 1, 0, 2, 7})
	f.Add([]byte{0x5e, 0, 0, 0, 4, 4, 4, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkSparseFill(decodeFill(data)); err != nil {
			t.Fatalf("input %x: %v", data, err)
		}
	})
}
