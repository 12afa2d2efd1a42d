// occamy-hwcost prints the Table-1 hardware cost model for Occamy's
// head-drop selector, fixed-priority arbiter, and head-drop executor,
// plus the Maximum Finder comparison that rules classic Pushout out.
//
// Usage:
//
//	occamy-hwcost [-queues 64] [-bits 20] [-ghz 1.0]
package main

import (
	"flag"
	"fmt"
	"os"

	"occamy/internal/hw"
)

func main() {
	queues := flag.Int("queues", 64, "number of queues tracked by the selector bitmap")
	bits := flag.Int("bits", 20, "bit width of compared queue lengths")
	ghz := flag.Float64("ghz", 1.0, "traffic manager clock for timing checks")
	flag.Parse()

	hw.Table1HardwareCost(*queues, *bits).Fprint(os.Stdout)

	fmt.Println()
	fmt.Println("Maximum Finder (the circuit classic Pushout needs, Fig 4):")
	mf := hw.NewMaxFinder(*queues, *bits)
	fmt.Printf("  levels=%d comparators=%d gates=%d delay=%.2fns\n",
		mf.Levels(), mf.Comparators(), mf.Gates(), mf.DelayNs())
	if mf.MeetsCycleTime(*ghz) {
		fmt.Printf("  settles within one %.1fGHz cycle\n", *ghz)
	} else {
		fmt.Printf("  CANNOT settle within one %.1fGHz cycle — the paper's\n", *ghz)
		fmt.Println("  Difficulty 3: per-cycle queue-length changes outrun the tree.")
	}

	fmt.Println()
	fmt.Println("Dequeue pipeline (Fig 10):")
	for _, sub := range []int{1, 4} {
		cfg := hw.PipelineConfig{Sublists: sub}
		fmt.Printf("  %d sublists: 1500B packet (8 cells) dequeue=%d cycles, expulsion rate=%.0f Mpps\n",
			sub, hw.DequeueCycles(cfg, 8, true), hw.ExpulsionRate(cfg, *ghz, 8)/1e6)
	}
}
