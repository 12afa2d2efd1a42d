package hw

// DequeueOp enumerates the five pipeline operations of Fig 10.
type DequeueOp int

// The dequeue pipeline operations, in issue order.
const (
	OpReadPD      DequeueOp = iota // ① read PD from PD memory
	OpDequeuePD                    // ② advance the PD linked-list head
	OpReadCellPtr                  // ③ read a cell pointer
	OpFreeCell                     // ④ return the pointer to the free list
	OpReadCell                     // ⑤ read cell data (skipped on head-drop)
)

// PipelineConfig describes the dequeue datapath.
type PipelineConfig struct {
	// Sublists is the number of parallel cell-pointer sub-lists (§2.1);
	// that many cell pointers can be read per cycle.
	Sublists int
}

// DequeueCycles returns how many traffic-manager cycles the Fig 10
// pipeline needs to retire one packet occupying `cells` cells, whether
// it is transmitted or head-dropped. The PD read/dequeue take one cycle
// each; cell-pointer reads then stream at Sublists per cycle, with
// free-cell and (for transmission) data reads overlapped in the
// pipeline. Head-drops skip operation ⑤ but, because the three memories
// are accessed in parallel, the *occupancy* of the PD/pointer stages is
// what bounds throughput — which is why the paper charges head-drop the
// same pointer bandwidth as a normal dequeue.
func DequeueCycles(cfg PipelineConfig, cells int) int {
	if cells < 1 {
		cells = 1
	}
	sub := cfg.Sublists
	if sub < 1 {
		sub = 1
	}
	ptrCycles := (cells + sub - 1) / sub
	// ① and ② occupy one cycle each; pointer streaming overlaps ④ (and
	// ⑤ when transmitting, on a separate memory port).
	return 2 + ptrCycles
}

// ExpulsionRate returns the packets-per-second the expulsion path can
// sustain at the given clock (GHz) for packets of `cells` cells, when the
// output scheduler leaves the PD/pointer memories idle.
func ExpulsionRate(cfg PipelineConfig, ghz float64, cells int) float64 {
	cyc := DequeueCycles(cfg, cells)
	return ghz * 1e9 / float64(cyc)
}
