package interp

import (
	"fmt"

	"repro/internal/hwpf"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Image is a trace predecoded into flat parallel arrays, ready to be
// replayed against any number of machine configurations. Building the
// Image pays the varint/stream decoding cost exactly once; each Replay
// is then a tight loop over the arrays issuing sim.Core calls. The
// sweep runner builds one Image per (workload, variant) group and fans
// the machine × hwpf cells off it, so per-cell cost is the timing
// model plus array dispatch — no interpretation, no decoding.
type Image struct {
	t *trace.Trace

	kind []uint8 // trace.Kind per event
	aux  []uint8 // Op: LatClass; Prefetch: 1=valid; Branch: 1=conditional; Poke: width
	pc   []int32
	addr []int64 // Load/Store/Prefetch/Poke: address; Alloc: size

	// Poke values live out of line: only memory-replica rebuilds (IMP
	// configs) read them, and most events are not pokes.
	pokeVal []int64

	// Dependency sets, flattened and renumbered to readiness slots:
	// event i waits on the slots deps[depOff[i]:depOff[i+1]], and the
	// v-th value-producing event writes slot dst[v]. A slot is reused
	// once its value's last read has passed, so Replay keeps one
	// readiness time per live value — a handful — not one per value.
	depOff []uint32
	deps   []uint32
	dst    []uint32
	slots  int
}

// NewImage decodes a trace into its replayable form, validating the
// stream (any corruption surfaces here, not mid-replay).
func NewImage(t *trace.Trace) (*Image, error) {
	if n := len(t.Summary.OpCounts); n != 0 && n != ir.NumOps {
		return nil, fmt.Errorf("interp: replay: trace has %d op counts, want %d (recorded by a different IR revision?)",
			n, ir.NumOps)
	}
	n := int(t.NumEvents)
	im := &Image{
		t:      t,
		kind:   make([]uint8, 0, n),
		aux:    make([]uint8, 0, n),
		pc:     make([]int32, 0, n),
		addr:   make([]int64, 0, n),
		depOff: make([]uint32, 1, n+1),
	}
	r := t.Events()
	var ev trace.Event
	for r.Next(&ev) {
		var aux uint8
		var addr int64
		switch ev.Kind {
		case trace.KindOp:
			aux = uint8(ev.Lat)
		case trace.KindLoad, trace.KindStore:
			addr = ev.Addr
		case trace.KindPrefetch:
			addr = ev.Addr
			if ev.Valid {
				aux = 1
			}
		case trace.KindBranch:
			if ev.Conditional {
				aux = 1
			}
		case trace.KindAlloc:
			addr = ev.Size
		case trace.KindPoke:
			addr = ev.Addr
			aux = uint8(ev.Width)
			im.pokeVal = append(im.pokeVal, ev.Val)
		}
		im.kind = append(im.kind, uint8(ev.Kind))
		im.aux = append(im.aux, aux)
		im.pc = append(im.pc, int32(ev.PC))
		im.addr = append(im.addr, addr)
		for _, d := range ev.Deps {
			im.deps = append(im.deps, uint32(d))
		}
		im.depOff = append(im.depOff, uint32(len(im.deps)))
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	im.assignSlots(int(t.NumValues))
	return im, nil
}

// assignSlots renumbers the trace's values to reusable slots. Scanning
// backward, a value's last read comes first: it takes a free slot,
// which the value holds back to its producer, where the slot is freed
// again. An event's reads are renumbered after its own value's slot is
// freed, so a read may share that slot: replay reads an event's
// dependencies before it writes the event's value. A value that is
// never read is written to any slot free at its producer. The only
// per-value memory is dst itself.
func (im *Image) assignSlots(numValues int) {
	dst := make([]uint32, numValues) // slot+1 while scanning; 0 = not yet live
	var free []uint32
	take := func() uint32 {
		if n := len(free); n > 0 {
			s := free[n-1]
			free = free[:n-1]
			return s + 1
		}
		im.slots++
		return uint32(im.slots)
	}
	v := numValues
	for i := len(im.kind) - 1; i >= 0; i-- {
		if k := trace.Kind(im.kind[i]); k == trace.KindOp || k == trace.KindLoad {
			v--
			if dst[v] == 0 {
				dst[v] = take()
			}
			dst[v]--
			free = append(free, dst[v])
		}
		deps := im.deps[im.depOff[i]:im.depOff[i+1]]
		for j, d := range deps {
			if dst[d] == 0 {
				dst[d] = take()
			}
			deps[j] = dst[d] - 1
		}
	}
	im.dst = dst
}

// Trace returns the trace this image was decoded from.
func (im *Image) Trace() *trace.Trace { return im.t }

// Replay drives the core timing model from the predecoded trace instead
// of live interpretation: the machine-retiming half of the record/replay
// split. The core is reset to a cold state first (mirroring NewOnCore),
// then each trace event issues the same sim.Core call, with the same
// arguments, that a timing machine issues for it — readiness times are
// recomputed as the max completion time of each event's dependency set,
// which is exactly the computation a timing machine performs over its
// SSA timing handles. The resulting statistics are byte-for-byte
// identical to a direct run of the same kernel on the same
// configuration (pinned by cmd/golden's direct-vs-replay diff and the
// gen.Oracle replay stage).
//
// If the configuration's hardware prefetcher speculates on memory
// values (hwpf.PeekSetter — the IMP model), a shadow replica of
// simulated memory is rebuilt from the trace's Alloc/Poke events and
// installed as the peek hook; allocation addresses are deterministic,
// so the replica reproduces the recorded run's address space exactly.
// Stream-only models skip the replica, and with it most of the
// replay-side memory cost.
//
// The functional statistics (executed instructions, op counts, loads,
// stores, prefetches) come from the trace footer; only timing-side
// numbers are recomputed.
func (im *Image) Replay(c sim.CoreModel) (Stats, error) {
	var st Stats
	t := im.t

	c.Reset()
	var replica *Memory
	if _, ok := c.Hierarchy().Prefetcher().(hwpf.PeekSetter); ok {
		replica = NewMemory()
		c.Hierarchy().SetPeek(replica.Peek)
	}

	cfg := c.Config()
	mulLat, divLat := cfg.MulLatency, cfg.DivLatency
	if mulLat == 0 {
		mulLat = 1 // the decoder's zero-means-one clamp
	}
	if divLat == 0 {
		divLat = 1
	}

	ready := make([]float64, im.slots)
	nextPoke, nextValue := 0, 0
	for i, kind := range im.kind {
		var opsReady float64
		for _, s := range im.deps[im.depOff[i]:im.depOff[i+1]] {
			if v := ready[s]; v > opsReady {
				opsReady = v
			}
		}
		switch trace.Kind(kind) {
		case trace.KindOp:
			lat := int64(1)
			switch trace.LatClass(im.aux[i]) {
			case trace.LatMul:
				lat = mulLat
			case trace.LatDiv:
				lat = divLat
			}
			ready[im.dst[nextValue]] = c.Op(opsReady, lat)
			nextValue++
		case trace.KindLoad:
			ready[im.dst[nextValue]] = c.Load(int(im.pc[i]), im.addr[i], opsReady)
			nextValue++
		case trace.KindStore:
			c.Store(int(im.pc[i]), im.addr[i], opsReady)
		case trace.KindPrefetch:
			c.Prefetch(int(im.pc[i]), im.addr[i], opsReady, im.aux[i] != 0)
		case trace.KindBranch:
			c.Branch(opsReady, im.aux[i] != 0)
		case trace.KindFinish:
			c.Finish()
		case trace.KindAlloc:
			if replica != nil {
				if _, err := replica.Alloc(im.addr[i]); err != nil {
					return st, fmt.Errorf("interp: replay: %w", err)
				}
			}
		case trace.KindPoke:
			if replica != nil {
				if err := replica.Store(im.addr[i], im.pokeVal[nextPoke], pokeType(int(im.aux[i]))); err != nil {
					return st, fmt.Errorf("interp: replay: %w", err)
				}
			}
			nextPoke++
		}
	}

	st = Stats{
		Cycles:       c.Cycles(),
		Instructions: c.CoreStats().Instructions,
		Executed:     t.Summary.Executed,
		Loads:        t.Summary.Loads,
		Stores:       t.Summary.Stores,
		Prefetches:   t.Summary.Prefetches,
	}
	copy(st.OpCounts[:], t.Summary.OpCounts)
	return st, nil
}

// pokeType maps a poke width back to the IR type Memory.Store expects.
func pokeType(width int) ir.Type {
	switch width {
	case 1:
		return ir.I8
	case 2:
		return ir.I16
	case 4:
		return ir.I32
	}
	return ir.I64
}
