package scenario

import (
	"occamy/internal/pkt"
	"occamy/internal/sim"
	"occamy/internal/switchsim"
)

// injector feeds fixed-size packets directly into a switch (the
// Pktgen-DPDK role in the P4 experiments): no transport, no host — raw
// arrival processes for the queue-dynamics scenarios. Packets come from
// pool; the run's egress sinks and drop hook hand them back.
type injector struct {
	eng     *sim.Engine
	sw      *switchsim.Switch
	dst     pkt.NodeID
	prio    int
	pktSize int
	flowID  uint64
	pool    *pkt.Pool

	sent  int64
	bytes int64

	nextID uint64
	ticker *sim.Ticker
}

func (in *injector) packet() *pkt.Packet {
	in.nextID++
	in.sent++
	in.bytes += int64(in.pktSize)
	p := in.pool.Get()
	p.ID = in.nextID + in.flowID<<32
	p.FlowID = in.flowID
	p.Dst = in.dst
	p.Size = in.pktSize
	p.Priority = in.prio
	return p
}

// gap is the packet spacing that paces pktSize packets at rateBps.
func (in *injector) gap(rateBps float64) sim.Duration {
	gap := sim.Duration(float64(in.pktSize*8) / rateBps * float64(sim.Second))
	if gap < 1 {
		gap = 1
	}
	return gap
}

// startCBR injects at a constant bit rate from `from` until stop.
func (in *injector) startCBR(from sim.Time, rateBps float64) {
	start := from - in.eng.Now()
	if start < 0 {
		start = 0
	}
	in.ticker = in.eng.Every(start, in.gap(rateBps), func() { in.sw.Receive(in.packet()) })
}

// stop halts a CBR injection.
func (in *injector) stop() {
	if in.ticker != nil {
		in.ticker.Stop()
	}
}

// burstState is the single self-rescheduling event behind burst: instead
// of pre-scheduling one closure per packet for the whole burst (n heap
// entries and n allocations up front for a multi-MB burst), one typed
// event re-arms itself until the burst is done.
type burstState struct {
	in        *injector
	remaining int64
	gap       sim.Duration
}

// OnEvent implements sim.Handler.
func (b *burstState) OnEvent(any) {
	b.remaining--
	b.in.sw.Receive(b.in.packet())
	if b.remaining > 0 {
		b.in.eng.AfterEvent(b.gap, b, nil)
	}
}

// burst injects totalBytes as back-to-back packets paced at rateBps
// starting at `at` (e.g. a 100G sender bursting into a 10G port).
func (in *injector) burst(at sim.Time, totalBytes int64, rateBps float64) {
	n := totalBytes / int64(in.pktSize)
	if n <= 0 {
		return
	}
	in.eng.AtEvent(at, &burstState{in: in, remaining: n, gap: in.gap(rateBps)}, nil)
}
