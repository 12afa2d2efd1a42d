package hw

import (
	"testing"
	"testing/quick"
)

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(100)
	if b.Any() || b.Count() != 0 {
		t.Fatal("fresh bitmap not empty")
	}
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(99)
	if b.Count() != 4 {
		t.Fatalf("Count = %d, want 4", b.Count())
	}
	for _, i := range []int{0, 63, 64, 99} {
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	b.Clear(63)
	if b.Get(63) || b.Count() != 3 {
		t.Fatal("Clear failed")
	}
	b.Assign(63, true)
	b.Assign(0, false)
	if !b.Get(63) || b.Get(0) {
		t.Fatal("Assign failed")
	}
}

func TestBitmapNextSetWraps(t *testing.T) {
	b := NewBitmap(130)
	b.Set(5)
	b.Set(70)
	if i, ok := b.NextSet(0); !ok || i != 5 {
		t.Fatalf("NextSet(0) = %d,%v", i, ok)
	}
	if i, ok := b.NextSet(6); !ok || i != 70 {
		t.Fatalf("NextSet(6) = %d,%v", i, ok)
	}
	if i, ok := b.NextSet(71); !ok || i != 5 {
		t.Fatalf("NextSet(71) should wrap to 5, got %d,%v", i, ok)
	}
	if i, ok := b.NextSet(5); !ok || i != 5 {
		t.Fatalf("NextSet(5) = %d,%v, want 5", i, ok)
	}
	empty := NewBitmap(8)
	if _, ok := empty.NextSet(3); ok {
		t.Fatal("NextSet on empty bitmap reported a bit")
	}
}

func TestBitmapOutOfRangePanics(t *testing.T) {
	b := NewBitmap(8)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Set did not panic")
		}
	}()
	b.Set(8)
}

// Property: NextSet always returns a set bit, and over repeated calls
// from the returned index+1 visits every set bit exactly once per lap.
func TestBitmapNextSetVisitsAll(t *testing.T) {
	f := func(idxs []uint8, start uint8) bool {
		b := NewBitmap(256)
		want := map[int]bool{}
		for _, i := range idxs {
			b.Set(int(i))
			want[int(i)] = true
		}
		if len(want) == 0 {
			_, ok := b.NextSet(int(start))
			return !ok
		}
		seen := map[int]bool{}
		pos := int(start)
		for range want {
			i, ok := b.NextSet(pos % 256)
			if !ok || !b.Get(i) || seen[i] {
				return false
			}
			seen[i] = true
			pos = i + 1
		}
		return len(seen) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Next and NextSet against a bit-by-bit scan, and Reset, at sizes around
// the word boundaries: from every position, over an empty, a sparse, a
// dense and a full bitmap.
func TestBitmapNextMatchesLinearScan(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130} {
		for _, stride := range []int{0, 61, 7, 2, 1} {
			b := NewBitmap(n)
			for i := n - 1; stride > 0 && i >= 0; i -= stride {
				b.Set(i)
			}
			for from := -1; from <= n+1; from++ {
				want := -1
				for i := max(from, 0); from >= 0 && i < n; i++ {
					if b.Get(i) {
						want = i
						break
					}
				}
				if got := b.Next(from); got != want {
					t.Fatalf("n=%d stride=%d: Next(%d) = %d, want %d", n, stride, from, got, want)
				}
				if from < 0 {
					continue
				}
				// Cyclic: the first set bit at or after from mod n, else the
				// first one before it.
				wantSet, wantOK := b.Next(from%n), b.Any()
				if wantSet < 0 {
					wantSet = max(b.Next(0), 0)
				}
				if got, ok := b.NextSet(from); got != wantSet || ok != wantOK {
					t.Fatalf("n=%d stride=%d: NextSet(%d) = %d,%v, want %d,%v", n, stride, from, got, ok, wantSet, wantOK)
				}
			}
			b.Reset()
			if b.Any() || b.Count() != 0 || b.Next(0) != -1 || b.Size() != n {
				t.Fatalf("n=%d stride=%d: Reset left Count %d, Next(0) %d, Size %d", n, stride, b.Count(), b.Next(0), b.Size())
			}
			b.Set(n - 1)
			if b.Next(0) != n-1 {
				t.Fatalf("n=%d: bitmap unusable after Reset", n)
			}
		}
	}
}

func TestRoundRobinFairness(t *testing.T) {
	b := NewBitmap(4)
	b.Set(0)
	b.Set(2)
	b.Set(3)
	a := NewRoundRobinArbiter(4)
	var got []int
	for i := 0; i < 6; i++ {
		g, ok := a.Grant(b)
		if !ok {
			t.Fatal("Grant failed with requests pending")
		}
		got = append(got, g)
	}
	want := []int{0, 2, 3, 0, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grants = %v, want %v", got, want)
		}
	}
}

func TestRoundRobinSkipsCleared(t *testing.T) {
	b := NewBitmap(4)
	b.Set(1)
	b.Set(3)
	a := NewRoundRobinArbiter(4)
	g1, _ := a.Grant(b)
	b.Clear(3) // queue 3 no longer over-allocated
	g2, _ := a.Grant(b)
	if g1 != 1 || g2 != 1 {
		t.Fatalf("grants = %d,%d, want 1,1", g1, g2)
	}
	b.Clear(1)
	if _, ok := a.Grant(b); ok {
		t.Fatal("Grant succeeded on empty bitmap")
	}
}

func TestRoundRobinPeekDoesNotAdvance(t *testing.T) {
	b := NewBitmap(4)
	b.Set(1)
	b.Set(2)
	a := NewRoundRobinArbiter(4)
	p1, _ := a.Peek(b)
	p2, _ := a.Peek(b)
	if p1 != p2 {
		t.Fatalf("Peek advanced: %d then %d", p1, p2)
	}
	g, _ := a.Grant(b)
	if g != p1 {
		t.Fatalf("Grant %d != Peek %d", g, p1)
	}
}

func TestMaxFinderFindsMax(t *testing.T) {
	m := NewMaxFinder(8, 20)
	vals := []int{3, 9, 1, 9, 0, 2, 8, 4}
	// Tree tie-break: the mux picks b on a==b, so the later index 3 wins.
	if got := m.Find(vals); got != 3 {
		t.Fatalf("Find = %d, want 3 (later tie winner)", got)
	}
	vals[6] = 99
	if got := m.Find(vals); got != 6 {
		t.Fatalf("Find = %d, want 6", got)
	}
}

// Find folds the tree over one working row kept in the finder: a call
// allocates nothing, and nothing of one call's row leaks into the next
// (odd sizes carry their last input up unpaired, level after level).
func TestMaxFinderReusesItsRow(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13, 130} {
		m := NewMaxFinder(n, 16)
		vals := make([]int, n)
		for round := 0; round < 3*n; round++ {
			clear(vals)
			hi := round % n
			vals[hi] = 9
			vals[(hi+n/2)%n] = 9 // a tie: the later index has to win
			want := max(hi, (hi+n/2)%n)
			if got := m.Find(vals); got != want {
				t.Fatalf("n=%d round %d: Find = %d, want %d", n, round, got, want)
			}
		}
		if a := testing.AllocsPerRun(10, func() { m.Find(vals) }); a != 0 {
			t.Fatalf("n=%d: Find allocates %v times per call", n, a)
		}
	}
}

// Property: the comparator tree always returns an index whose value is
// the true maximum.
func TestMaxFinderCorrect(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int, len(raw))
		max := 0
		for i, v := range raw {
			vals[i] = int(v)
			if int(v) > max {
				max = int(v)
			}
		}
		m := NewMaxFinder(len(vals), 16)
		return vals[m.Find(vals)] == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxFinderCostScaling(t *testing.T) {
	m := NewMaxFinder(64, 20)
	if m.Levels() != 6 {
		t.Fatalf("Levels = %d, want 6", m.Levels())
	}
	if m.Comparators() != 63 {
		t.Fatalf("Comparators = %d, want 63", m.Comparators())
	}
	// §2.2 Difficulty 3: the MF cannot settle in a 1GHz cycle at scale.
	if m.MeetsCycleTime(1.0) {
		t.Fatal("64-input MF met a 1GHz cycle; paper's argument requires it not to")
	}
	// A tiny MF does fit, confirming the delay model scales.
	if !NewMaxFinder(2, 4).MeetsCycleTime(1.0) {
		t.Fatal("trivial MF failed 1GHz cycle")
	}
}

func TestDequeueCycles(t *testing.T) {
	cfg := PipelineConfig{Sublists: 1}
	if got := DequeueCycles(cfg, 1); got != 3 {
		t.Fatalf("1 cell = %d cycles, want 3", got)
	}
	if got := DequeueCycles(cfg, 4); got != 6 {
		t.Fatalf("4 cells = %d cycles, want 6", got)
	}
	// Parallel sub-lists speed up pointer streaming (§3.2 opportunity 3).
	cfg4 := PipelineConfig{Sublists: 4}
	if got := DequeueCycles(cfg4, 4); got != 3 {
		t.Fatalf("4 cells/4 sublists = %d cycles, want 3", got)
	}
}

func TestExpulsionRate(t *testing.T) {
	cfg := PipelineConfig{Sublists: 4}
	// ~1500B packet = 8 cells of 200B: 2+2 = 4 cycles at 1GHz = 250Mpps.
	r := ExpulsionRate(cfg, 1.0, 8)
	if r < 2e8 || r > 3e8 {
		t.Fatalf("ExpulsionRate = %v, want ~2.5e8", r)
	}
}

func TestTable1MatchesPaperShape(t *testing.T) {
	rows := Table1(64, 20)
	sel, arb, exe := rows[0], rows[1], rows[2]

	// Paper values: selector 1262 LUTs / 47 FFs / 1.49ns / 0.023mm² /
	// 0.895mW. The analytic model must land within 15%.
	within := func(got, want, tol float64) bool {
		return got >= want*(1-tol) && got <= want*(1+tol)
	}
	if !within(float64(sel.LUTs), 1262, 0.15) {
		t.Errorf("selector LUTs = %d, want ~1262", sel.LUTs)
	}
	if !within(float64(sel.FlipFlops), 47, 0.15) {
		t.Errorf("selector FFs = %d, want ~47", sel.FlipFlops)
	}
	if !within(sel.TimingNs, 1.49, 0.15) {
		t.Errorf("selector timing = %v, want ~1.49", sel.TimingNs)
	}
	if !within(sel.AreaMM2, 0.023, 0.15) {
		t.Errorf("selector area = %v, want ~0.023", sel.AreaMM2)
	}
	if !within(sel.PowerMW, 0.895, 0.20) {
		t.Errorf("selector power = %v, want ~0.895", sel.PowerMW)
	}

	// Relative shape: the selector dominates everything.
	if sel.LUTs < 10*arb.LUTs || sel.LUTs < 10*exe.LUTs {
		t.Error("selector does not dominate LUT cost")
	}
	// Totals stay within the paper's headline: <0.03mm², ~1mW.
	tot := TotalCost(rows)
	if tot.AreaMM2 >= 0.03 {
		t.Errorf("total area = %v, want < 0.03", tot.AreaMM2)
	}
	if tot.PowerMW >= 1.2 {
		t.Errorf("total power = %v, want ~1", tot.PowerMW)
	}
	// Selector settles fast enough to expel a packet every 2 cycles @1GHz.
	if sel.TimingNs >= 2.0 {
		t.Errorf("selector timing %vns too slow for 2-cycle expulsion", sel.TimingNs)
	}
}

func TestSelectorCostScalesWithQueues(t *testing.T) {
	small := SelectorCost(8, 20)
	big := SelectorCost(512, 20)
	if big.LUTs <= small.LUTs || big.TimingNs <= small.TimingNs {
		t.Fatal("selector cost does not grow with queue count")
	}
}
