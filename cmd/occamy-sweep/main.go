// occamy-sweep explores the α design space analytically and empirically:
// Eq. 2 buffer reservations, the Eq. 4 fairness bound, and the measured
// maximum lossless burst per (policy, α) in the Fig 12 scenario.
//
// Usage:
//
//	occamy-sweep [-maxalpha 16] [-queues 1]
package main

import (
	"flag"
	"fmt"

	"occamy/internal/bm"
	"occamy/internal/experiments"
	"occamy/internal/scenario"
)

func main() {
	maxAlpha := flag.Float64("maxalpha", 16, "largest alpha to sweep (powers of two)")
	n := flag.Int("queues", 1, "congested queues for the Eq.2 reservation")
	jobs := flag.Int("j", 0, "concurrent simulations for the measured sweep (0 = GOMAXPROCS)")
	flag.Parse()
	experiments.SetParallelism(*jobs)

	fmt.Println("Eq.2 steady-state free-buffer reservation F/B = 1/(1+alpha*n)")
	fmt.Printf("%-8s %-14s %-18s\n", "alpha", "reserved", "one-queue occupancy")
	for a := 0.25; a <= *maxAlpha; a *= 2 {
		fr := bm.ReservedFraction(a, *n)
		occ := bm.SteadyStateQueueLen(a, *n, 1_000_000)
		fmt.Printf("%-8g %-14.4f %.1f%%\n", a, fr, float64(occ)/1e6*100)
	}

	fmt.Println("\nEq.4 fairness bound: largest (R/V-1)*M - N that 1/alpha must cover")
	fmt.Printf("%-10s %-10s %-10s\n", "R/V", "bound", "any alpha fair?")
	for _, rv := range []float64{1.0, 1.5, 2.0, 3.0, 4.0} {
		b := bm.FairExpulsionAlphaBound(rv, 1, 1, 1)
		fmt.Printf("%-10.1f %-10.2f %v\n", rv, b, b <= 0)
	}

	fmt.Println("\nmeasured maximum lossless burst (Fig 12 scenario, 1.2MB buffer)")
	fmt.Printf("%-8s %-12s %-12s\n", "alpha", "occamy_KB", "dt_KB")
	var alphas []float64
	for a := 1.0; a <= *maxAlpha && a <= 8; a *= 2 {
		alphas = append(alphas, a)
	}
	// Each alpha point runs two independent bisection sweeps; fan the
	// points across the worker pool with deterministic output order.
	rows := experiments.RunGrid(alphas, func(a float64) [2]int64 {
		return [2]int64{
			scenario.MaxLosslessBurst(scenario.Policy{Kind: "occamy", Alpha: a}, 100_000, 900_000, 50_000),
			scenario.MaxLosslessBurst(scenario.Policy{Kind: "dt", Alpha: a}, 100_000, 900_000, 50_000),
		}
	})
	for i, a := range alphas {
		fmt.Printf("%-8g %-12d %-12d\n", a, rows[i][0]/1000, rows[i][1]/1000)
	}
}
