package interp

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Pre-decoding lowers an ir.Function into a flat micro-op stream once
// per Machine, so the execution loop stops chasing *ir.Instr pointers,
// type-switching on the Value interface, and re-resolving operands on
// every dynamic instruction. The lowered form is semantically identical
// to direct interpretation: uops appear in block order, phi evaluation
// stays a parallel two-phase step, and per-op latencies are the same
// numbers the switch used to fetch from the core configuration.

// Operand kinds. A decoded operand either carries an immediate, or
// names a slot in the frame's parameter/value arrays.
const (
	opdConst uint8 = iota
	opdParam
	opdInstr
	opdMissing // phi operand with no edge from the observed predecessor
)

type operand struct {
	kind uint8
	idx  int32 // parameter index or instruction ID
	imm  int64 // constant value
}

// uop is one decoded instruction. The three fixed operand slots cover
// every opcode except calls, which keep their argument list in xargs.
type uop struct {
	op    ir.Op
	typ   ir.Type // result type; access type for loads/stores
	pred  ir.Pred
	nargs uint8
	id    int32 // destination slot (the instruction's SSA ID)
	tgt0  int32 // branch targets as block indices
	tgt1  int32
	lat   int32          // ALU latency, resolved at decode time
	class trace.LatClass // ALU latency class, which a recorder writes instead

	a0, a1, a2 operand
	xargs      []operand // OpCall argument list (nil otherwise)

	callee   string
	calleeFn *ir.Function // memoized callee resolution; decode() re-checks staleness
}

// dblock is a decoded basic block: the phi section in parallel-copy
// form, then the remaining instructions as a flat uop slice.
type dblock struct {
	name     string
	phiIDs   []int32
	phiNames []string
	// phiArgs[p][k] is the operand flowing into phi k when control
	// arrives from block index p; a nil row means no phi has an edge
	// from that block.
	phiArgs [][]operand
	uops    []uop
}

// dfunc is a decoded function.
type dfunc struct {
	name    string
	numVals int
	blocks  []dblock
}

// decode returns the cached lowering of f, building it on first use.
// The cache is keyed by function identity; a changed instruction count
// (the cheap signature Renumber maintains) forces a re-decode.
func (m *Machine) decode(f *ir.Function) *dfunc {
	if df, ok := m.decoded[f]; ok && df.numVals == f.NumInstrs() {
		return df
	}
	cfg := &sim.Config{} // a recorder times nothing: latencies stay 1
	if m.Core != nil {
		cfg = m.Core.Config()
	}
	df := decodeFunc(f, cfg)
	if m.decoded == nil {
		m.decoded = make(map[*ir.Function]*dfunc)
	}
	m.decoded[f] = df
	return df
}

// ClearDecodeCache drops all cached lowerings; call after mutating the
// module between runs on the same Machine.
func (m *Machine) ClearDecodeCache() { m.decoded = nil }

func decodeFunc(f *ir.Function, cfg *sim.Config) *dfunc {
	blkIdx := make(map[*ir.Block]int32, len(f.Blocks))
	for i, b := range f.Blocks {
		blkIdx[b] = int32(i)
	}
	df := &dfunc{name: f.Name, numVals: f.NumInstrs()}
	df.blocks = make([]dblock, len(f.Blocks))
	for i, b := range f.Blocks {
		db := &df.blocks[i]
		db.name = b.Name
		phis := b.Phis()
		for _, phi := range phis {
			db.phiIDs = append(db.phiIDs, int32(phi.ID))
			db.phiNames = append(db.phiNames, phi.Name)
		}
		if len(phis) > 0 {
			db.phiArgs = make([][]operand, len(f.Blocks))
			for pi, pb := range f.Blocks {
				row := make([]operand, len(phis))
				any := false
				for k, phi := range phis {
					if inc := phi.PhiIncoming(pb); inc != nil {
						row[k] = decodeOperand(inc)
						any = true
					} else {
						row[k] = operand{kind: opdMissing}
					}
				}
				if any {
					db.phiArgs[pi] = row
				}
			}
		}
		db.uops = make([]uop, 0, len(b.Instrs)-len(phis))
		for _, in := range b.Instrs[len(phis):] {
			db.uops = append(db.uops, decodeInstr(in, blkIdx, cfg))
		}
	}
	return df
}

func decodeOperand(v ir.Value) operand {
	switch x := v.(type) {
	case *ir.Const:
		return operand{kind: opdConst, imm: x.Val}
	case *ir.Param:
		return operand{kind: opdParam, idx: int32(x.Idx)}
	case *ir.Instr:
		return operand{kind: opdInstr, idx: int32(x.ID)}
	}
	panic(fmt.Sprintf("interp: unknown value kind %T", v))
}

func decodeInstr(in *ir.Instr, blkIdx map[*ir.Block]int32, cfg *sim.Config) uop {
	u := uop{
		op:   in.Op,
		typ:  in.Typ,
		pred: in.Pred,
		id:   int32(in.ID),
		tgt0: -1,
		tgt1: -1,
		lat:  1,
	}
	switch in.Op {
	case ir.OpStore:
		u.typ = ir.StoreType(in)
	case ir.OpMul:
		u.class, u.lat = trace.LatMul, int32(cfg.MulLatency)
	case ir.OpDiv, ir.OpRem:
		u.class, u.lat = trace.LatDiv, int32(cfg.DivLatency)
	case ir.OpCall:
		u.callee = in.Callee
	case ir.OpBr:
		u.tgt0 = blkIdx[in.Targets[0]]
	case ir.OpCBr:
		u.tgt0 = blkIdx[in.Targets[0]]
		u.tgt1 = blkIdx[in.Targets[1]]
	}
	if u.lat == 0 {
		u.lat = 1
	}
	if in.Op == ir.OpCall {
		u.xargs = make([]operand, len(in.Args))
		for i, a := range in.Args {
			u.xargs[i] = decodeOperand(a)
		}
		u.nargs = uint8(len(in.Args))
		return u
	}
	u.nargs = uint8(len(in.Args))
	if len(in.Args) > 0 {
		u.a0 = decodeOperand(in.Args[0])
	}
	if len(in.Args) > 1 {
		u.a1 = decodeOperand(in.Args[1])
	}
	if len(in.Args) > 2 {
		u.a2 = decodeOperand(in.Args[2])
	}
	if len(in.Args) > 3 {
		// No current opcode has more than three fixed operands, but keep
		// the full list rather than silently dropping operands.
		u.xargs = make([]operand, len(in.Args))
		for i, a := range in.Args {
			u.xargs[i] = decodeOperand(a)
		}
	}
	return u
}
