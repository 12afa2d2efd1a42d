package hw

import "math"

// Cost is one row of Table 1: FPGA resource use plus 45nm ASIC
// synthesis results for a component.
type Cost struct {
	Module    string
	LUTs      int
	FlipFlops int
	TimingNs  float64 // critical-path delay
	AreaMM2   float64 // 45nm area
	PowerMW   float64
}

// Cost-model calibration constants. These are fitted to the paper's
// Vivado + FreePDK45 numbers (Table 1) for the 64-queue selector and
// scale analytically in N (queues) and k (queue-length bit width); see
// DESIGN.md for the substitution rationale. Area/power per LUT-equivalent
// follow 45nm standard-cell densities.
const (
	lutPerCmpBit   = 0.93    // LUTs per compared bit (k-bit a>b comparator)
	lutPerArbBit   = 1.1     // LUTs per bitmap bit in the RR arbiter
	ffPerPtrBit    = 1.0     // FFs per rotating-pointer bit
	areaPerLUT     = 1.78e-5 // mm² per LUT-equivalent at 45nm
	powerPerLUT    = 7.0e-4  // mW per LUT-equivalent at 45nm, 1GHz
	nsPerTreeLevel = 0.115   // comparator/arbiter tree level delay
)

// SelectorCost models the head-drop selector (Fig 9): N parallel k-bit
// comparators feeding an N-input round-robin arbiter, plus the bitmap
// and rotating-pointer state.
func SelectorCost(nQueues, qlenBits int) Cost {
	n, k := float64(nQueues), float64(qlenBits)
	luts := float64(n*k*lutPerCmpBit) + float64(n*lutPerArbBit)
	// State: rotating pointer (log2 N bits), pipeline/output registers.
	ffs := float64(math.Ceil(math.Log2(n))*ffPerPtrBit) + 41
	// Delay: one k-bit compare, then the arbiter's log2 N propagate.
	delay := (math.Ceil(math.Log2(k)) + math.Ceil(math.Log2(n))) * nsPerTreeLevel
	return Cost{
		Module:    "Selector",
		LUTs:      int(math.Round(luts)),
		FlipFlops: int(math.Round(ffs)),
		TimingNs:  round2(delay),
		AreaMM2:   round5(luts * areaPerLUT),
		PowerMW:   round3(luts * powerPerLUT),
	}
}

// ArbiterCost models the 2-input fixed-priority arbiter of §4.3 (the
// output scheduler always wins; internal/core's token bucket is its
// behaviour): a couple of gates, no state.
func ArbiterCost() Cost {
	const luts = 3.0
	return Cost{
		Module:    "Arbiter",
		LUTs:      3,
		FlipFlops: 0,
		TimingNs:  0.17,
		AreaMM2:   round5(luts * areaPerLUT * 0.43),
		PowerMW:   round3(luts * powerPerLUT * 1.4),
	}
}

// ExecutorCost models the head-drop executor: the small FSM that steers
// a granted head-drop through the existing dequeue pipeline.
func ExecutorCost() Cost {
	const luts = 47.0
	return Cost{
		Module:    "Executor",
		LUTs:      47,
		FlipFlops: 7,
		TimingNs:  0.38,
		AreaMM2:   round5(luts * areaPerLUT * 0.88),
		PowerMW:   round3(luts * powerPerLUT * 1.34),
	}
}

// Table1 returns the paper's hardware-cost table for a selector over
// nQueues queues with qlenBits-wide queue lengths (the paper uses a
// 64-bit bitmap, i.e. 64 queues).
func Table1(nQueues, qlenBits int) []Cost {
	return []Cost{SelectorCost(nQueues, qlenBits), ArbiterCost(), ExecutorCost()}
}

// TotalCost sums a cost table into one row.
func TotalCost(rows []Cost) Cost {
	t := Cost{Module: "Total"}
	for _, r := range rows {
		t.LUTs += r.LUTs
		t.FlipFlops += r.FlipFlops
		if r.TimingNs > t.TimingNs {
			t.TimingNs = r.TimingNs // critical path, not sum
		}
		t.AreaMM2 += r.AreaMM2
		t.PowerMW += r.PowerMW
	}
	t.AreaMM2 = round5(t.AreaMM2)
	t.PowerMW = round3(t.PowerMW)
	return t
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }
func round5(v float64) float64 { return math.Round(v*100000) / 100000 }
