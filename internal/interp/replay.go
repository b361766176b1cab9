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

	// Dependency sets, flattened: event i depends on the values produced
	// by deps[depOff[i]:depOff[i+1]].
	depOff []uint32
	deps   []uint32
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
	return im, nil
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

	values := make([]float64, 0, t.NumValues)
	nextPoke := 0
	for i, kind := range im.kind {
		var opsReady float64
		for _, d := range im.deps[im.depOff[i]:im.depOff[i+1]] {
			if v := values[d]; v > opsReady {
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
			values = append(values, c.Op(opsReady, lat))
		case trace.KindLoad:
			values = append(values, c.Load(int(im.pc[i]), im.addr[i], opsReady))
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
