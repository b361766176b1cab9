package interp

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Stats aggregates the dynamic behaviour of one run.
type Stats struct {
	Cycles       float64
	Instructions uint64 // issued by the core (excludes phis)
	Executed     uint64 // interpreted instructions (includes phis)
	OpCounts     [ir.NumOps]uint64
	Loads        uint64
	Stores       uint64
	Prefetches   uint64
}

// Machine runs IR programs against a simulated core. Functions are
// lowered to a flat micro-op stream on first execution and the decoded
// form is cached on the machine (see predecode.go), so repeated runs
// and hot loops pay no per-instruction IR traversal cost.
//
// A machine built by NewRecorder has no core: it interprets
// functionally and appends every core-visible event to a trace instead
// of timing it. Either way each SSA slot carries one uint64 timing
// handle next to its value. 0 means ready at time zero. A timing
// machine stores the readiness time's float64 bit pattern (non-negative
// float64 bit patterns sort like their values, so the largest operand
// handle is the latest readiness); a recorder stores the trace value
// index plus one.
type Machine struct {
	Mod  *ir.Module
	Core sim.CoreModel
	Mem  *Memory

	// MaxInstrs bounds the dynamic instruction count (0 = 2^40),
	// guarding against runaway loops in generated code.
	MaxInstrs uint64

	stats Stats

	// decoded caches the per-function lowering; phiV/phiH are scratch
	// buffers for the parallel phi copy (phi evaluation never nests, so
	// one machine-wide pair suffices even across calls).
	decoded map[*ir.Function]*dfunc
	phiV    []int64
	phiH    []uint64

	// rec is a recorder's trace writer (nil on a timing machine);
	// depBuf is scratch for the dependency set of the event being
	// recorded, consumed synchronously by the writer.
	rec    *trace.Writer
	depBuf []int64
}

// runs counts Machine.Run invocations process-wide — the
// interp-invocation counter replay amortization tests assert against:
// a full-grid sweep in replay mode must interpret each (workload,
// variant) exactly once, however many machine × hwpf cells it retimes.
var runs atomic.Uint64

// Runs returns the process-wide count of Machine.Run invocations.
func Runs() uint64 { return runs.Load() }

// New builds a machine for the module on the given core configuration;
// the core timing model is whatever cfg.Core selects (empty = the
// legacy interval model).
func New(mod *ir.Module, cfg *sim.Config) *Machine {
	m := &Machine{
		Mod:  mod,
		Core: sim.NewCoreModel(cfg),
		Mem:  NewMemory(),
	}
	m.Core.Hierarchy().SetPeek(m.Mem.Peek)
	return m
}

// NewOnCore builds a machine over an existing simulator core, resetting
// the core to a cold state first. This is the storage-recycling entry
// point for worker pools (internal/sweep): the core's Reset paths keep
// their cache/TLB/MSHR table allocations, so a goroutine running many
// independent experiments reuses one set of tables per machine
// configuration instead of reallocating them every run. Behaviour is
// identical to New with a freshly built core.
func NewOnCore(mod *ir.Module, core sim.CoreModel) *Machine {
	core.Reset()
	m := &Machine{
		Mod:  mod,
		Core: core,
		Mem:  NewMemory(),
	}
	// Re-point the prefetcher peek hook at this machine's memory; the
	// recycled core last peeked into the previous run's address space.
	m.Core.Hierarchy().SetPeek(m.Mem.Peek)
	return m
}

// NewRecorder builds a machine with no core that records instead of
// timing: every core-visible event (ops, loads, stores, prefetches,
// branches, finish) and every simulated-memory mutation goes to w, with
// machine-independent dependency sets in place of timestamps. The
// resulting trace retimes on any configuration through NewImage and
// Image.Replay. A recorder's Stats carry the functional counters and
// zero cycles.
func NewRecorder(mod *ir.Module, w *trace.Writer) *Machine {
	m := &Machine{Mod: mod, Mem: NewMemory(), rec: w}
	m.Mem.rec = w
	return m
}

// Stats returns the accumulated statistics.
func (m *Machine) Stats() Stats {
	if m.Core != nil {
		m.stats.Cycles = m.Core.Cycles()
		m.stats.Instructions = m.Core.CoreStats().Instructions
	}
	return m.stats
}

const maxCallDepth = 64

// Run executes the named function with the given arguments and returns
// its result. Timing accumulates across calls; use a fresh Machine (or
// Core.Reset) for independent measurements.
func (m *Machine) Run(name string, args ...int64) (int64, error) {
	f := m.Mod.Func(name)
	if f == nil {
		return 0, fmt.Errorf("interp: no function %q", name)
	}
	if len(args) != len(f.Params) {
		return 0, fmt.Errorf("interp: %s takes %d arguments, got %d", name, len(f.Params), len(args))
	}
	if m.MaxInstrs == 0 {
		m.MaxInstrs = 1 << 40
	}
	runs.Add(1)
	v, _, err := m.call(m.decode(f), args, make([]uint64, len(args)), 0)
	if err != nil {
		return 0, err
	}
	if m.rec != nil {
		m.rec.Finish()
	} else {
		m.Core.Finish()
	}
	return v, nil
}

// frame holds one activation: SSA value/handle slots plus the incoming
// arguments. Operands are pre-resolved slot references (see
// predecode.go), so reading one is an array index, not an interface
// type switch.
type frame struct {
	vals  []int64
	h     []uint64
	args  []int64
	argsH []uint64
}

// get returns the runtime value and timing handle of an operand.
func (fr *frame) get(o operand) (int64, uint64) {
	switch o.kind {
	case opdConst:
		return o.imm, 0
	case opdParam:
		return fr.args[o.idx], fr.argsH[o.idx]
	}
	return fr.vals[o.idx], fr.h[o.idx]
}

// handle returns just the timing handle of an operand.
func (fr *frame) handle(o operand) uint64 {
	switch o.kind {
	case opdConst:
		return 0
	case opdParam:
		return fr.argsH[o.idx]
	}
	return fr.h[o.idx]
}

// op books the single-cycle overhead op of a call or return whose
// operands are ready at ready: on the core, or in the trace.
func (m *Machine) op(ready float64) {
	if m.rec != nil {
		m.rec.Op(trace.Lat1, m.depBuf)
	} else {
		m.Core.Op(ready, 1)
	}
}

// call executes one decoded function activation: the flat uop loop that
// replaces per-instruction IR traversal.
func (m *Machine) call(df *dfunc, args []int64, argsH []uint64, depth int) (int64, uint64, error) {
	if depth > maxCallDepth {
		return 0, 0, fmt.Errorf("interp: call depth exceeded in %s", df.name)
	}
	fr := frame{
		vals:  make([]int64, df.numVals),
		h:     make([]uint64, df.numVals),
		args:  args,
		argsH: argsH,
	}

	bi, prev := int32(0), int32(-1)
blocks:
	for {
		b := &df.blocks[bi]

		// Phase 1: evaluate phis in parallel against the incoming edge.
		if n := len(b.phiIDs); n > 0 {
			var row []operand
			if prev >= 0 {
				row = b.phiArgs[prev]
			}
			if cap(m.phiV) < n {
				m.phiV = make([]int64, n)
				m.phiH = make([]uint64, n)
			}
			tmpV, tmpH := m.phiV[:n], m.phiH[:n]
			for i := 0; i < n; i++ {
				if row == nil || row[i].kind == opdMissing {
					prevName := "<entry>"
					if prev >= 0 {
						prevName = df.blocks[prev].name
					}
					return 0, 0, fmt.Errorf("interp: phi %%%s has no edge from %s", b.phiNames[i], prevName)
				}
				tmpV[i], tmpH[i] = fr.get(row[i])
			}
			for i := 0; i < n; i++ {
				fr.vals[b.phiIDs[i]] = tmpV[i]
				fr.h[b.phiIDs[i]] = tmpH[i]
				m.stats.Executed++
				m.stats.OpCounts[ir.OpPhi]++
			}
		}

		for ui := range b.uops {
			u := &b.uops[ui]
			if m.stats.Executed >= m.MaxInstrs {
				return 0, 0, fmt.Errorf("interp: instruction budget (%d) exhausted in %s", m.MaxInstrs, df.name)
			}
			m.stats.Executed++
			m.stats.OpCounts[u.op]++

			// Operand walk: a timing machine needs the latest handle (the
			// latest readiness), a recorder the dependency set (the trace
			// value index of every operand not ready at time zero).
			var h uint64
			if m.rec == nil {
				if u.xargs != nil {
					for _, o := range u.xargs {
						h = max(h, fr.handle(o))
					}
				} else {
					if u.nargs > 0 {
						h = fr.handle(u.a0)
					}
					if u.nargs > 1 {
						h = max(h, fr.handle(u.a1))
					}
					if u.nargs > 2 {
						h = max(h, fr.handle(u.a2))
					}
				}
			} else {
				ops := u.xargs
				if ops == nil {
					ops = []operand{u.a0, u.a1, u.a2}[:u.nargs]
				}
				m.depBuf = m.depBuf[:0]
				for _, o := range ops {
					if x := fr.handle(o); x != 0 {
						m.depBuf = append(m.depBuf, int64(x-1))
					}
				}
			}
			ready := math.Float64frombits(h)

			switch u.op {
			case ir.OpAlloc:
				elems, _ := fr.get(u.a0)
				esize, _ := fr.get(u.a1)
				base, aerr := m.Mem.Alloc(elems * esize)
				if aerr != nil {
					return 0, 0, aerr
				}
				fr.vals[u.id] = base

			case ir.OpLoad:
				addr, _ := fr.get(u.a0)
				v, lerr := m.Mem.Load(addr, u.typ)
				if lerr != nil {
					return 0, 0, lerr
				}
				m.stats.Loads++
				fr.vals[u.id] = v
				if m.rec != nil {
					fr.h[u.id] = uint64(m.rec.Load(int(u.id), addr, m.depBuf)) + 1
				} else {
					fr.h[u.id] = math.Float64bits(m.Core.Load(int(u.id), addr, ready))
				}
				continue

			case ir.OpStore:
				addr, _ := fr.get(u.a0)
				v, _ := fr.get(u.a1)
				if serr := m.Mem.Store(addr, v, u.typ); serr != nil {
					return 0, 0, serr
				}
				m.stats.Stores++
				if m.rec != nil {
					m.rec.Store(int(u.id), addr, m.depBuf)
				} else {
					m.Core.Store(int(u.id), addr, ready)
				}
				continue

			case ir.OpPrefetch:
				addr, _ := fr.get(u.a0)
				m.stats.Prefetches++
				valid := m.Mem.Valid(addr, 1)
				if m.rec != nil {
					m.rec.Prefetch(int(u.id), addr, valid, m.depBuf)
				} else {
					m.Core.Prefetch(int(u.id), addr, ready, valid)
				}
				continue

			case ir.OpGEP:
				base, _ := fr.get(u.a0)
				idx, _ := fr.get(u.a1)
				scale, _ := fr.get(u.a2)
				fr.vals[u.id] = base + idx*scale

			case ir.OpCmp:
				a, _ := fr.get(u.a0)
				bv, _ := fr.get(u.a1)
				if u.pred.Eval(a, bv) {
					fr.vals[u.id] = 1
				} else {
					fr.vals[u.id] = 0
				}

			case ir.OpSelect:
				c, _ := fr.get(u.a0)
				a, _ := fr.get(u.a1)
				bv, _ := fr.get(u.a2)
				if c != 0 {
					fr.vals[u.id] = a
				} else {
					fr.vals[u.id] = bv
				}

			case ir.OpCall:
				callee := u.calleeFn
				if callee == nil {
					if callee = m.Mod.Func(u.callee); callee == nil {
						return 0, 0, fmt.Errorf("interp: call to undefined @%s", u.callee)
					}
					u.calleeFn = callee
				}
				cdf := m.decode(callee)
				cargs := make([]int64, len(u.xargs))
				ch := make([]uint64, len(u.xargs))
				for i, o := range u.xargs {
					cargs[i], ch[i] = fr.get(o)
				}
				m.op(ready) // call overhead
				v, r, cerr := m.call(cdf, cargs, ch, depth+1)
				if cerr != nil {
					return 0, 0, cerr
				}
				fr.vals[u.id] = v
				fr.h[u.id] = r
				continue

			case ir.OpBr, ir.OpCBr:
				cond := u.op == ir.OpCBr
				if m.rec != nil {
					m.rec.Branch(cond, m.depBuf)
				} else {
					m.Core.Branch(ready, cond)
				}
				prev, bi = bi, u.tgt0
				if c, _ := fr.get(u.a0); cond && c == 0 {
					bi = u.tgt1
				}
				continue blocks

			case ir.OpRet:
				m.op(ready)
				if u.nargs == 1 {
					v, r := fr.get(u.a0)
					return v, r, nil
				}
				return 0, 0, nil

			default:
				// Binary arithmetic.
				a, _ := fr.get(u.a0)
				bv, _ := fr.get(u.a1)
				var v int64
				switch u.op {
				case ir.OpAdd:
					v = a + bv
				case ir.OpSub:
					v = a - bv
				case ir.OpMul:
					v = a * bv
				case ir.OpDiv:
					if bv == 0 {
						return 0, 0, &Fault{Op: ir.OpDiv, Msg: "division by zero"}
					}
					v = a / bv
				case ir.OpRem:
					if bv == 0 {
						return 0, 0, &Fault{Op: ir.OpRem, Msg: "division by zero"}
					}
					v = a % bv
				case ir.OpAnd:
					v = a & bv
				case ir.OpOr:
					v = a | bv
				case ir.OpXor:
					v = a ^ bv
				case ir.OpShl:
					v = a << (uint64(bv) & 63)
				case ir.OpShr:
					v = int64(uint64(a) >> (uint64(bv) & 63))
				case ir.OpMin:
					v = a
					if bv < a {
						v = bv
					}
				case ir.OpMax:
					v = a
					if bv > a {
						v = bv
					}
				default:
					return 0, 0, fmt.Errorf("interp: unimplemented opcode %s", u.op)
				}
				fr.vals[u.id] = v
			}

			// The uop is an ALU op that produced a value (the other kinds
			// continue or return above); its latency and latency class
			// were resolved at decode time.
			if m.rec != nil {
				fr.h[u.id] = uint64(m.rec.Op(u.class, m.depBuf)) + 1
			} else {
				fr.h[u.id] = math.Float64bits(m.Core.Op(ready, int64(u.lat)))
			}
		}
		return 0, 0, fmt.Errorf("interp: block %s fell through without terminator", b.name)
	}
}
