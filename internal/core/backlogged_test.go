package core

import (
	"fmt"
	"slices"
	"testing"

	"occamy/internal/bm"
	"occamy/internal/hw"
	"occamy/internal/sim"
)

// Differential for the scans that visit the backlogged set: each is held
// to the full 0..n scan it replaced, over seeded queue-length programs —
// the same over-allocation bits, the same victims in the same order.

// refOver is the comparator bank as a full scan, asking each queue's
// class for its threshold.
func refOver(f *fakeTM) []bool {
	over := make([]bool, len(f.lens))
	for q, l := range f.lens {
		over[q] = l > 0 && l > f.thresholds[q%len(f.thresholds)]
	}
	return over
}

// refLongest is the Fig 21 victim as a full scan: every queue's row entry
// written, a fresh row and tree per call.
func refLongest(f *fakeTM, over []bool) (int, bool) {
	vals := make([]int, len(f.lens))
	for q := range vals {
		if over[q] {
			vals[q] = f.lens[q]
		}
	}
	if !slices.Contains(over, true) {
		return 0, false
	}
	return hw.NewMaxFinder(len(vals), 32).Find(vals), true
}

// refMakeRoom is Pushout's eviction loop as a full scan per eviction.
func refMakeRoom(f *fakeTM, st bm.State, size int) bool {
	for bm.FreeBuffer(st) < size {
		if slices.Max(f.lens) == 0 {
			return false
		}
		longest := hw.NewMaxFinder(len(f.lens), 32).Find(f.lens)
		if _, _, ok := f.HeadDrop(longest); !ok {
			return false
		}
	}
	return true
}

// refQPO is QPO's eviction loop, the register re-seeded by a full scan.
func refQPO(reg *int, f *fakeTM, st bm.State, size int) bool {
	for bm.FreeBuffer(st) < size {
		if *reg < 0 || f.lens[*reg] == 0 {
			best, bestLen := -1, 0
			for q, l := range f.lens {
				if l > bestLen {
					best, bestLen = q, l
				}
			}
			if best < 0 {
				return false
			}
			*reg = best
		}
		if _, _, ok := f.HeadDrop(*reg); !ok {
			*reg = -1
		}
	}
	return true
}

// randomLens fills lens with mostly-empty queues, whole packets in the
// rest, from few enough distinct lengths that ties are the rule.
func randomLens(r *sim.Rand, lens []int, pktBytes int) {
	for q := range lens {
		lens[q] = 0
		if r.Intn(3) == 0 {
			lens[q] = pktBytes * (1 + r.Intn(4))
		}
	}
}

var backloggedSizes = []int{1, 2, 7, 63, 64, 65, 130}

func TestExpulsionScansMatchFullScan(t *testing.T) {
	for _, n := range backloggedSizes {
		for _, policy := range []VictimPolicy{RoundRobin, LongestQueue} {
			t.Run(fmt.Sprintf("%s/%d", policy, n), func(t *testing.T) {
				r := sim.NewRand(uint64(1000*n) + uint64(policy))
				f := newFakeTM(n)
				f.thresholds = make([]int, 1+n%3) // classes
				e := NewEngine(f, Config{Victim: policy})
				refArbiter := hw.NewRoundRobinArbiter(n)
				for step := 0; step < 400; step++ {
					if step%8 == 0 {
						randomLens(r, f.lens, f.pktBytes)
						for q := range f.thresholds {
							f.thresholds[q] = f.pktBytes * r.Intn(4)
						}
					}
					over := refOver(f)
					if got, want := e.refreshBitmap(), slices.Contains(over, true); got != want {
						t.Fatalf("step %d: refreshBitmap = %v, full scan %v (lens %v thresholds %v)", step, got, want, f.lens, f.thresholds)
					}
					for q, want := range over {
						if e.bitmap.Get(q) != want {
							t.Fatalf("step %d: over-allocation bit %d = %v, full scan %v (len %d threshold %d)", step, q, !want, want, f.lens[q], f.thresholds[q%len(f.thresholds)])
						}
					}
					if r.Intn(4) == 0 {
						// The scheduler drains a marked queue between the
						// refresh and the grant: its bit stays set.
						if q := e.bitmap.Next(r.Intn(n)); q >= 0 {
							f.lens[q] = 0
						}
					}
					var want int
					var wantOK bool
					if policy == LongestQueue {
						want, wantOK = refLongest(f, over)
					} else {
						refBits := hw.NewBitmap(n)
						for q, o := range over {
							refBits.Assign(q, o)
						}
						want, wantOK = refArbiter.Grant(refBits)
					}
					got, ok := e.victim()
					if got != want || ok != wantOK {
						t.Fatalf("step %d: victim = %d,%v, full scan %d,%v (lens %v over %v)", step, got, ok, want, wantOK, f.lens, over)
					}
					if ok {
						f.HeadDrop(got)
					}
				}
			})
		}
	}
}

// TestKickBoundMatchesFullScan holds Kick, which rescans only when some
// class's bound passes its threshold, to the full scan the bound stands
// in for: after every growth, dequeue or threshold move, Kick schedules a
// pass exactly when some queue is over its class's threshold.
func TestKickBoundMatchesFullScan(t *testing.T) {
	for _, n := range backloggedSizes {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			r := sim.NewRand(uint64(31 * n))
			f := newFakeTM(n)
			f.thresholds = make([]int, 1+n%3) // classes
			for c := range f.thresholds {
				f.thresholds[c] = f.pktBytes * (1 + r.Intn(4))
			}
			e := NewEngine(f, Config{})
			for step := 0; step < 2000; step++ {
				q := r.Intn(n)
				switch k := r.Intn(10); {
				case k < 5: // an enqueue: the only growth, and always kicked
					f.lens[q] += f.pktBytes
				case k < 8: // a dequeue or head-drop, kicked or not
					f.lens[q] -= min(f.lens[q], f.pktBytes)
					if k == 7 {
						continue
					}
				case k < 9: // the free buffer moves every class's threshold
					f.thresholds[r.Intn(len(f.thresholds))] = f.pktBytes * r.Intn(5)
				default: // a pass's refresh resets the bounds exactly
					e.refreshBitmap()
				}
				e.Kick(q)
				for q, l := range f.lens {
					if c := q % len(e.ub); l > e.ub[c] {
						t.Fatalf("step %d: queue %d holds %d, past its class's bound %d", step, q, l, e.ub[c])
					}
				}
				over := refOver(f)
				if want := slices.Contains(over, true); e.scheduled != want {
					t.Fatalf("step %d: Kick(%d) scheduled %v, full scan finds over-allocation %v (lens %v thresholds %v)",
						step, q, e.scheduled, want, f.lens, f.thresholds)
				}
				if e.scheduled {
					for q, want := range over {
						if e.bitmap.Get(q) != want {
							t.Fatalf("step %d: over-allocation bit %d = %v, full scan %v", step, q, !want, want)
						}
					}
					e.scheduled = false // the pass, not run here, would clear it
				}
			}
		})
	}
}

func TestPreemptorScansMatchFullScan(t *testing.T) {
	for _, n := range backloggedSizes {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			r := sim.NewRand(uint64(77 * n))
			got, want := newFakeTM(n), newFakeTM(n)
			pushout, pot, qpo := NewPushout(), NewPOT(0.5), NewQPO()
			refReg := -1
			for step := 0; step < 300; step++ {
				randomLens(r, got.lens, got.pktBytes)
				copy(want.lens, got.lens)
				got.drops, want.drops = got.drops[:0], want.drops[:0]
				// Between nothing free and a third of what is buffered; past
				// the capacity now and then, so that the buffer has to empty.
				capacity := got.Occupancy() + r.Intn(2)*got.pktBytes
				size := 1 + r.Intn(got.Occupancy()/3+2*got.pktBytes)
				gotSt, wantSt := &lenState{capacity, got.lens}, &lenState{capacity, want.lens}
				arriving := r.Intn(n)

				var gotOK, wantOK bool
				switch step % 3 {
				case 0:
					gotOK, wantOK = pushout.MakeRoom(got, gotSt, size), refMakeRoom(want, wantSt, size)
				case 1:
					gotOK = pot.MakeRoomFor(got, gotSt, arriving, size)
					if want.lens[arriving] < pot.Threshold(wantSt, arriving) {
						wantOK = refMakeRoom(want, wantSt, size)
					}
				case 2:
					// The admission that precedes it moves the register.
					qpo.Admit(gotSt, arriving, size)
					if refReg < 0 || want.lens[arriving] > want.lens[refReg] {
						refReg = arriving
					}
					gotOK, wantOK = qpo.MakeRoomFor(got, gotSt, arriving, size), refQPO(&refReg, want, wantSt, size)
				}
				if gotOK != wantOK || !slices.Equal(got.drops, want.drops) || !slices.Equal(got.lens, want.lens) {
					t.Fatalf("step %d (kind %d, size %d, capacity %d): ok %v, victims %v, lens %v\nfull scan: ok %v, victims %v, lens %v",
						step, step%3, size, capacity, gotOK, got.drops, got.lens, wantOK, want.drops, want.lens)
				}
			}
		})
	}
}
