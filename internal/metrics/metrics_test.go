package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"occamy/internal/sim"
)

func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 3, 2, 4}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Percentile(v, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty percentile != 0")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	v := []float64{0, 10}
	if got := Percentile(v, 0.99); math.Abs(got-9.9) > 1e-9 {
		t.Fatalf("p99 of {0,10} = %v, want 9.9", got)
	}
}

// Property: percentile is monotone in q and bounded by min/max.
func TestPercentileMonotone(t *testing.T) {
	f := func(raw []uint16, q1, q2 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		v := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, x := range raw {
			v[i] = float64(x)
			lo = math.Min(lo, v[i])
			hi = math.Max(hi, v[i])
		}
		a := float64(q1%101) / 100
		b := float64(q2%101) / 100
		if a > b {
			a, b = b, a
		}
		pa, pb := Percentile(v, a), Percentile(v, b)
		return pa <= pb+1e-9 && pa >= lo-1e-9 && pb <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorSlowdown(t *testing.T) {
	var c Collector
	c.Add(1000, 20*sim.Microsecond, 10*sim.Microsecond) // slowdown 2
	c.Add(1000, 40*sim.Microsecond, 10*sim.Microsecond) // slowdown 4
	if got := c.MeanSlowdown(); math.Abs(got-3) > 1e-9 {
		t.Fatalf("MeanSlowdown = %v, want 3", got)
	}
	if got := c.MeanFCT(); got != 30*sim.Microsecond {
		t.Fatalf("MeanFCT = %v, want 30µs", got)
	}
}

func TestSlowdownClampsAtOne(t *testing.T) {
	var c Collector
	c.Add(1000, 5*sim.Microsecond, 10*sim.Microsecond)
	if got := c.MeanSlowdown(); got != 1 {
		t.Fatalf("slowdown below ideal = %v, want clamp to 1", got)
	}
}

func TestCollectorFilterSmall(t *testing.T) {
	var c Collector
	c.Add(50_000, sim.Millisecond, 0)
	c.Add(500_000, sim.Millisecond, 0)
	small := c.Small(100_000)
	if small.Count() != 1 || small.Samples()[0].Size != 50_000 {
		t.Fatalf("Small filter kept %d samples", small.Count())
	}
}

func TestP99FCT(t *testing.T) {
	var c Collector
	for i := 1; i <= 100; i++ {
		c.Add(1, sim.Duration(i)*sim.Millisecond, 0)
	}
	got := c.P99FCT()
	if got < 99*sim.Millisecond || got > 100*sim.Millisecond {
		t.Fatalf("P99FCT = %v, want ~99ms", got)
	}
}

func TestEmptyCollector(t *testing.T) {
	var c Collector
	if c.MeanFCT() != 0 || c.P99FCT() != 0 || c.MeanSlowdown() != 0 {
		t.Fatal("empty collector stats not zero")
	}
}
