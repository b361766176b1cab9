package sim

import "repro/internal/hwpf"

// AccessKind distinguishes the flavours of memory access presented to
// the hierarchy.
type AccessKind int

// Access kinds.
const (
	AccessLoad AccessKind = iota
	AccessStore
	AccessPrefetch // software prefetch: fills caches, never stalls
	AccessHW       // hardware-prefetcher fill
)

// Hierarchy ties together the caches, TLB, DRAM bus, MSHRs and the
// hardware prefetcher of one machine.
type Hierarchy struct {
	cfg    *Config
	caches []*Cache
	tlb    *TLB

	lineShift uint
	lineSize  int64

	// DRAM bus: busFree is when the bus next becomes idle. Contention
	// from other cores (fig. 9) inflates each access's occupancy.
	busFree   float64
	occupancy float64 // cycles of bus occupancy per line transfer

	// MSHRs: completion times of outstanding misses.
	mshr []float64

	// Miss status: in-flight line fills, so that accesses to a line
	// already being fetched merge instead of issuing twice.
	inflight *timeMap

	// Hardware prefetcher: a pluggable model (internal/hwpf) trained
	// on the demand-load stream; nil when disabled. The hierarchy owns
	// acting on its candidates — the fill-level presence filter, TLB
	// translation, MSHRs and the bus — so models stay pure pattern
	// machines. pfBuf is the reusable candidate buffer.
	pf    hwpf.Prefetcher
	pfBuf []int64

	// tracer, when non-nil, records every access (see trace.go).
	tracer *Tracer

	// Stats.
	Loads, Stores      uint64
	SWPrefetches       uint64
	HWPrefetches       uint64
	HWPrefetchDropped  uint64 // hardware prefetches dropped on a TLB miss
	DRAMAccesses       uint64
	DRAMBytes          uint64
	MSHRStallCycles    float64
	LoadStallCycles    float64 // demand-load cycles beyond L1 latency
	PrefetchLateCycles float64 // demand-hit cycles spent waiting on in-flight fills
}

// NewHierarchy builds the memory system for a machine configuration.
func NewHierarchy(cfg *Config) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Hierarchy{
		cfg:      cfg,
		tlb:      NewTLB(cfg),
		inflight: newTimeMap(4 * cfg.MSHRs),
		mshr:     make([]float64, cfg.MSHRs),
	}
	for _, cc := range cfg.Caches {
		h.caches = append(h.caches, NewCache(cc))
	}
	h.lineSize = cfg.Caches[0].LineSize
	for 1<<h.lineShift != h.lineSize {
		h.lineShift++
	}
	pf, err := hwpf.New(cfg.HWPrefetcherName(), hwpf.Config{
		LineShift: h.lineShift,
		Degree:    cfg.StrideDegree,
		Conf:      cfg.StrideConf,
		Streams:   cfg.StrideStreams,
	})
	if err != nil {
		panic(err) // Validate vets the name; unreachable
	}
	h.pf = pf
	h.occupancy = float64(h.lineSize) / cfg.BytesPerCycle
	if cfg.SharedCores > 1 {
		load := cfg.ContentionLoad
		if load == 0 {
			load = 1
		}
		// Each contending core injects `load` times this core's traffic;
		// bus occupancy per transfer grows accordingly. The explicit
		// conversion rounds the product, so no GOARCH fuses it into
		// the add (see TestNoFusedMultiplyAdd).
		h.occupancy *= 1 + float64(load*float64(cfg.SharedCores-1))
	}
	return h
}

// Caches exposes the cache levels (L1 first) for statistics.
func (h *Hierarchy) Caches() []*Cache { return h.caches }

// TLB exposes the TLB for statistics.
func (h *Hierarchy) TLBStats() *TLB { return h.tlb }

// Access presents one memory access to the hierarchy at time `start`
// and returns the time its data is available. pc identifies the access
// site for the stride prefetcher. Stores and prefetches return their
// completion time too, but callers do not stall on them.
func (h *Hierarchy) Access(kind AccessKind, pc int, addr int64, start float64) float64 {
	switch kind {
	case AccessLoad:
		h.Loads++
	case AccessStore:
		h.Stores++
	case AccessPrefetch:
		h.SWPrefetches++
	case AccessHW:
		h.HWPrefetches++
	}

	// Address translation. Software prefetches translate (and walk)
	// too — warming the TLB is part of the benefit the paper measures
	// (§6.2, fig. 10). Hardware prefetches are speculative addresses a
	// real engine would never hand to a page-table walker: they
	// translate only on a TLB hit and are dropped otherwise. A model
	// whose candidates stay on the triggering page (the stride
	// streamer) always hits the entry the demand access just touched,
	// so this rule only bites page-crossing designs (GHB, IMP).
	var t float64
	if kind == AccessHW {
		var ok bool
		if t, ok = h.tlb.TranslateNoWalk(addr, start); !ok {
			h.HWPrefetchDropped++
			if h.tracer != nil {
				h.tracer.record(TraceEvent{Kind: kind, PC: pc, Addr: addr, Start: start, Complete: start, Level: LevelDropped})
			}
			return start
		}
	} else {
		t = h.tlb.Translate(addr, start)
	}

	demand := kind == AccessLoad
	// Hardware prefetches skip levels above their fill level.
	firstLevel := 0
	if kind == AccessHW {
		firstLevel = h.cfg.StrideFillLevel
		if firstLevel >= len(h.caches) {
			firstLevel = len(h.caches) - 1
		}
	}
	// Probe the hierarchy top-down.
	for lvl := firstLevel; lvl < len(h.caches); lvl++ {
		c := h.caches[lvl]
		ready, ok := c.Lookup(addr, t, demand)
		if !ok {
			t += float64(c.cfg.Latency)
			continue
		}
		// A hit returns at the fill's completion or the level's latency,
		// whichever is later. When the fill is still in flight past the
		// normal hit latency, the demand access waited on it — the "late
		// prefetch" penalty of figure 7, charged as the cycles beyond an
		// ordinary hit at this level.
		done := ready
		lat := t + float64(c.cfg.Latency)
		if lat > done {
			done = lat
		} else if demand && ready > lat {
			h.PrefetchLateCycles += ready - lat
		}
		// Fill upper levels.
		for u := firstLevel; u < lvl; u++ {
			h.caches[u].Fill(addr, done, kind == AccessPrefetch || kind == AccessHW)
		}
		if demand {
			h.LoadStallCycles += done - start - float64(h.caches[0].cfg.Latency)
			h.trainHW(pc, addr, lvl > 0, start)
		}
		if h.tracer != nil {
			h.tracer.record(TraceEvent{Kind: kind, PC: pc, Addr: addr, Start: start, Complete: done, Level: lvl})
		}
		return done
	}

	// Miss in all levels: go to DRAM.
	done := h.dramFetch(addr, t, kind, firstLevel)
	if demand {
		h.LoadStallCycles += done - start - float64(h.caches[0].cfg.Latency)
		h.trainHW(pc, addr, true, start)
	}
	if h.tracer != nil {
		h.tracer.record(TraceEvent{Kind: kind, PC: pc, Addr: addr, Start: start, Complete: done, Level: -1})
	}
	return done
}

// dramFetch fetches a line from memory, merging with in-flight fills,
// acquiring an MSHR, and arbitrating for the bus.
func (h *Hierarchy) dramFetch(addr int64, t float64, kind AccessKind, firstLevel int) float64 {
	line := addr >> h.lineShift
	if done, ok := h.inflight.get(line); ok && done > t {
		return done
	}

	// Acquire an MSHR: wait for the earliest outstanding miss if full.
	slot := 0
	for i := range h.mshr {
		if h.mshr[i] < h.mshr[slot] {
			slot = i
		}
	}
	if h.mshr[slot] > t {
		h.MSHRStallCycles += h.mshr[slot] - t
		t = h.mshr[slot]
	}

	// Bus occupancy.
	busStart := t
	if h.busFree > busStart {
		busStart = h.busFree
	}
	h.busFree = busStart + h.occupancy
	done := busStart + float64(h.cfg.DRAMLatency)

	h.mshr[slot] = done
	h.inflight.put(line, done)
	if h.inflight.n > 4*len(h.mshr) {
		h.inflight.sweep(t)
	}
	h.DRAMAccesses++
	h.DRAMBytes += uint64(h.lineSize)

	// Fill all levels from firstLevel down (inclusive hierarchy).
	isPf := kind == AccessPrefetch || kind == AccessHW
	for _, c := range h.caches[firstLevel:] {
		c.Fill(addr, done, isPf)
	}
	return done
}

// trainHW presents a demand load to the hardware-prefetcher model and
// acts on its candidates: each candidate whose line is absent from the
// fill-level cache is fetched via the AccessHW path, which skips the
// levels above the fill level, translates (warming the TLB) and
// consumes MSHR/bus resources like any other fill. The presence probe
// touches LRU state exactly like the old hard-wired streamer did, so
// the hwpf=stride port stays bit-identical.
func (h *Hierarchy) trainHW(pc int, addr int64, miss bool, now float64) {
	if h.pf == nil {
		return
	}
	h.pfBuf = h.pf.Observe(pc, addr, miss, h.pfBuf[:0])
	if len(h.pfBuf) == 0 {
		return
	}
	fillLvl := h.cfg.StrideFillLevel
	if fillLvl >= len(h.caches) {
		fillLvl = len(h.caches) - 1
	}
	// AccessHW never re-enters trainHW (it is not a demand load), so
	// iterating the shared buffer during issue is safe.
	for _, next := range h.pfBuf {
		if _, ok := h.caches[fillLvl].Lookup(next, now, false); ok {
			continue
		}
		h.Access(AccessHW, -pc-1, next, now)
	}
}

// Prefetcher exposes the hardware-prefetcher model (nil when off).
func (h *Hierarchy) Prefetcher() hwpf.Prefetcher { return h.pf }

// SetPeek installs a simulated-memory reader for value-speculating
// prefetcher models (hwpf.IMP); models that do not peek ignore it.
// The interpreter calls this when it attaches to a core.
func (h *Hierarchy) SetPeek(f hwpf.PeekFunc) {
	if ps, ok := h.pf.(hwpf.PeekSetter); ok {
		ps.SetPeek(f)
	}
}

// Drain returns the time at which all outstanding misses complete.
func (h *Hierarchy) Drain() float64 {
	var max float64
	for _, d := range h.mshr {
		if d > max {
			max = d
		}
	}
	return max
}

// Reset restores the hierarchy to a cold state, keeping configuration.
func (h *Hierarchy) Reset() {
	for _, c := range h.caches {
		c.Reset()
	}
	h.tlb.Reset()
	h.busFree = 0
	for i := range h.mshr {
		h.mshr[i] = 0
	}
	h.inflight.reset()
	if h.pf != nil {
		h.pf.Reset()
	}
	h.Loads, h.Stores, h.SWPrefetches, h.HWPrefetches = 0, 0, 0, 0
	h.HWPrefetchDropped = 0
	h.DRAMAccesses, h.DRAMBytes = 0, 0
	h.MSHRStallCycles, h.LoadStallCycles, h.PrefetchLateCycles = 0, 0, 0
}
