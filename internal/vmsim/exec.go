package vmsim

import (
	"fmt"
	"math"
	"unsafe"

	"jrpm/internal/hydra"
)

// The fast interpreter loop. It executes the pre-decoded form produced
// by Predecode and must remain observably bit-identical to the reference
// interpreter in internal/vmsim/refvm: same cycle counts, same event
// stream (kinds, timestamps, payloads, order), same heap contents, same
// printed output, same errors with the same messages, same instruction
// mix counters. TestVMDifferential and FuzzVMDiff enforce this over the
// whole workload suite, the example programs and a fuzz corpus.
//
// Event emission goes through the concrete *batchEmitter (emit.go): when
// em is nil (no listeners) every emission site is a single predictable
// branch; when non-nil the appends are direct method calls — no
// interface dispatch inside this loop.
//
// The step budget and cycle clock live in locals (steps, cycles) for the
// duration of the loop so the compiler can keep them in registers; they
// are written back through vm.sync on every exit path and around
// recursive calls, so VM state is always consistent when anything
// outside the loop (a callee frame, a listener, the caller) can see it.

// dfault builds a RuntimeError identical to the reference engine's.
func dfault(fn string, line int32, format string, args ...any) error {
	return &RuntimeError{Msg: fmt.Sprintf(format, args...), Func: fn, Line: int(line)}
}

// sync publishes the loop-local step and cycle counters back to the VM.
func (vm *VM) sync(steps, cycles int64) {
	vm.steps = steps
	vm.Cycles = cycles
}

// exec runs decoded function fi to completion. args fills the leading
// named-local slots (the parameters).
func (vm *VM) exec(c *Code, fi int, args []uint64, em *batchEmitter) (uint64, error) {
	f := &c.funcs[fi]
	regs := make([]uint64, f.numRegs)
	slots := make([]uint64, f.numSlots)
	copy(slots, args)
	vm.frameSeq++
	frame := vm.frameSeq

	// Register-resident mirrors of the per-instruction VM state. Any
	// path that leaves this frame must vm.sync(steps, cycles) first.
	steps := vm.steps
	cycles := vm.Cycles
	maxSteps := vm.MaxSteps
	mem := vm.Mem
	heapTop := vm.heapTop
	globals := vm.globals
	annotCost := vm.AnnotCost
	readStatsCost := vm.ReadStatsCost

	// Raw-pointer instruction fetch. Every ip value is either 0, a
	// sequential successor of a non-terminator, or a branch target —
	// and decode guarantees all of those are valid instruction indices
	// (blocks are non-empty, end in exactly one terminator, and branch
	// targets are block starts; fusion never crosses a block boundary).
	// Fetching through unsafe.Pointer drops the bounds check the
	// compiler cannot eliminate on its own, which is measurable at one
	// fetch per simulated cycle. The differential harness and fuzzer
	// exercise this path against the bounds-checked reference engine.
	code := f.instrs
	base := unsafe.Pointer(&code[0])
	addrMeta := f.addrMeta
	incMeta := f.incMeta
	lenMeta := f.lenMeta
	ip := 0
	for {
		ins := (*dinstr)(unsafe.Add(base, uintptr(ip)*unsafe.Sizeof(dinstr{})))
		ip++
		steps++
		if steps > maxSteps {
			vm.sync(steps, cycles)
			return 0, ErrStepLimit
		}
		if steps&interruptMask == 0 {
			if vm.interrupted.Load() {
				vm.sync(steps, cycles)
				return 0, ErrInterrupted
			}
			if sm := vm.sampler; sm != nil {
				sm.tick(fi)
			}
		}
		now := cycles
		cycles++

		switch ins.op {
		case dNop:
		case dConstI:
			regs[ins.dst] = uint64(ins.imm)
		case dConstF:
			regs[ins.dst] = uint64(ins.imm) // already Float64bits
		case dMov:
			regs[ins.dst] = regs[ins.a]
		case dAdd:
			regs[ins.dst] = uint64(int64(regs[ins.a]) + int64(regs[ins.b]))
		case dSub:
			regs[ins.dst] = uint64(int64(regs[ins.a]) - int64(regs[ins.b]))
		case dMul:
			regs[ins.dst] = uint64(int64(regs[ins.a]) * int64(regs[ins.b]))
		case dDiv:
			d := int64(regs[ins.b])
			if d == 0 {
				vm.sync(steps, cycles)
				return 0, dfault(f.name, ins.line, "integer division by zero")
			}
			regs[ins.dst] = uint64(int64(regs[ins.a]) / d)
		case dMod:
			d := int64(regs[ins.b])
			if d == 0 {
				vm.sync(steps, cycles)
				return 0, dfault(f.name, ins.line, "integer modulo by zero")
			}
			regs[ins.dst] = uint64(int64(regs[ins.a]) % d)
		case dAnd:
			regs[ins.dst] = regs[ins.a] & regs[ins.b]
		case dOr:
			regs[ins.dst] = regs[ins.a] | regs[ins.b]
		case dXor:
			regs[ins.dst] = regs[ins.a] ^ regs[ins.b]
		case dShl:
			regs[ins.dst] = uint64(int64(regs[ins.a]) << (regs[ins.b] & 63))
		case dShr:
			regs[ins.dst] = uint64(int64(regs[ins.a]) >> (regs[ins.b] & 63))
		case dNeg:
			regs[ins.dst] = uint64(-int64(regs[ins.a]))
		case dNot:
			if regs[ins.a] == 0 {
				regs[ins.dst] = 1
			} else {
				regs[ins.dst] = 0
			}
		case dFAdd:
			regs[ins.dst] = math.Float64bits(math.Float64frombits(regs[ins.a]) + math.Float64frombits(regs[ins.b]))
		case dFSub:
			regs[ins.dst] = math.Float64bits(math.Float64frombits(regs[ins.a]) - math.Float64frombits(regs[ins.b]))
		case dFMul:
			regs[ins.dst] = math.Float64bits(math.Float64frombits(regs[ins.a]) * math.Float64frombits(regs[ins.b]))
		case dFDiv:
			regs[ins.dst] = math.Float64bits(math.Float64frombits(regs[ins.a]) / math.Float64frombits(regs[ins.b]))
		case dFNeg:
			regs[ins.dst] = math.Float64bits(-math.Float64frombits(regs[ins.a]))
		case dEq:
			regs[ins.dst] = b2u(regs[ins.a] == regs[ins.b])
		case dNe:
			regs[ins.dst] = b2u(regs[ins.a] != regs[ins.b])
		case dLt:
			regs[ins.dst] = b2u(int64(regs[ins.a]) < int64(regs[ins.b]))
		case dLe:
			regs[ins.dst] = b2u(int64(regs[ins.a]) <= int64(regs[ins.b]))
		case dGt:
			regs[ins.dst] = b2u(int64(regs[ins.a]) > int64(regs[ins.b]))
		case dGe:
			regs[ins.dst] = b2u(int64(regs[ins.a]) >= int64(regs[ins.b]))
		case dFEq:
			regs[ins.dst] = b2u(math.Float64frombits(regs[ins.a]) == math.Float64frombits(regs[ins.b]))
		case dFNe:
			regs[ins.dst] = b2u(math.Float64frombits(regs[ins.a]) != math.Float64frombits(regs[ins.b]))
		case dFLt:
			regs[ins.dst] = b2u(math.Float64frombits(regs[ins.a]) < math.Float64frombits(regs[ins.b]))
		case dFLe:
			regs[ins.dst] = b2u(math.Float64frombits(regs[ins.a]) <= math.Float64frombits(regs[ins.b]))
		case dFGt:
			regs[ins.dst] = b2u(math.Float64frombits(regs[ins.a]) > math.Float64frombits(regs[ins.b]))
		case dFGe:
			regs[ins.dst] = b2u(math.Float64frombits(regs[ins.a]) >= math.Float64frombits(regs[ins.b]))
		case dI2F:
			regs[ins.dst] = math.Float64bits(float64(int64(regs[ins.a])))
		case dF2I:
			regs[ins.dst] = uint64(int64(math.Float64frombits(regs[ins.a])))
		case dLdLoc:
			regs[ins.dst] = slots[ins.x0]
			vm.NLocalLoads++
		case dStLoc:
			slots[ins.x0] = regs[ins.a]
			vm.NLocalStores++
		case dLdGlob:
			regs[ins.dst] = uint64(globals[ins.x0])
		case dLoad:
			addr := uint32(regs[ins.a])
			w := addr / hydra.WordSize
			if addr%hydra.WordSize != 0 || int(w) >= len(mem) || addr >= heapTop {
				vm.sync(steps, cycles)
				return 0, dfault(f.name, ins.line, "bad load address 0x%x", addr)
			}
			regs[ins.dst] = mem[w]
			vm.NHeapLoads++
			if em != nil {
				em.heapLoad(now, addr, ins.pc)
			}
		case dStore:
			addr := uint32(regs[ins.a])
			w := addr / hydra.WordSize
			if addr%hydra.WordSize != 0 || int(w) >= len(mem) || addr >= heapTop {
				vm.sync(steps, cycles)
				return 0, dfault(f.name, ins.line, "bad store address 0x%x", addr)
			}
			mem[w] = regs[ins.b]
			vm.NHeapStores++
			if em != nil {
				em.heapStore(now, addr, ins.pc)
			}
		case dArrLen:
			base := uint32(regs[ins.a])
			n, ok := vm.arrays[base]
			if !ok {
				vm.sync(steps, cycles)
				return 0, dfault(f.name, ins.line, "len of non-array address 0x%x", base)
			}
			regs[ins.dst] = uint64(n)
		case dNewArr:
			base, err := vm.Alloc(int64(regs[ins.a]))
			if err != nil {
				vm.sync(steps, cycles)
				return 0, dfault(f.name, ins.line, "%v", err)
			}
			regs[ins.dst] = uint64(base)
			mem = vm.Mem
			heapTop = vm.heapTop
		case dBr:
			ip = int(ins.t0)
		case dTrampBr:
			vm.NTrampolines++
			ip = int(ins.t0)
		case dBrIf:
			if regs[ins.a] != 0 {
				ip = int(ins.t0)
			} else {
				ip = int(ins.t1)
			}
		case dRet:
			vm.sync(steps, cycles)
			return 0, nil
		case dRetVal:
			vm.sync(steps, cycles)
			return regs[ins.a], nil
		case dCall:
			argv := f.argPool[ins.x0 : ins.x0+ins.x1]
			callArgs := make([]uint64, len(argv))
			for i, r := range argv {
				callArgs[i] = regs[r]
			}
			// Unthrottled interrupt poll at call boundaries: the masked
			// poll above fires every few thousand instructions, which
			// leaves straight-line, call-heavy programs running long
			// after an Interrupt. Calls are rare enough that one extra
			// atomic load here is free.
			if vm.interrupted.Load() {
				vm.sync(steps, cycles)
				return 0, ErrInterrupted
			}
			if em != nil {
				em.callEnter(now, ins.t0, ins.pc, frame)
			}
			loopBase := 0
			if sm := vm.sampler; sm != nil {
				loopBase = len(sm.stack)
			}
			vm.sync(steps, cycles)
			v, err := vm.exec(c, int(ins.t0), callArgs, em)
			steps = vm.steps
			cycles = vm.Cycles
			mem = vm.Mem
			heapTop = vm.heapTop
			if err != nil {
				return 0, err
			}
			if sm := vm.sampler; sm != nil {
				// Loop annotations the callee left unclosed (early
				// returns) must not leak into this frame's stack.
				sm.truncate(loopBase)
			}
			if ins.dst >= 0 {
				regs[ins.dst] = v
			}
			if em != nil {
				em.callExit(cycles, ins.t0, ins.pc, frame)
			}
		case dPrintI:
			fmt.Fprintf(vm.Out, "%d\n", int64(regs[ins.a]))
		case dPrintF:
			fmt.Fprintf(vm.Out, "%g\n", math.Float64frombits(regs[ins.a]))
		case dSLoop:
			cycles += annotCost - 1
			vm.NLoopAnnot++
			if em != nil {
				em.loopStart(now, ins.x0, ins.x1, frame)
			}
			if sm := vm.sampler; sm != nil {
				sm.push(ins.x0)
			}
		case dELoop:
			cycles += annotCost - 1
			vm.NLoopAnnot++
			if em != nil {
				em.loopEnd(now, ins.x0)
			}
			if sm := vm.sampler; sm != nil {
				sm.pop(ins.x0)
			}
		case dEOI:
			cycles += annotCost - 1
			vm.NLoopAnnot++
			if em != nil {
				em.loopIter(now, ins.x0)
			}
		case dLWL:
			cycles += annotCost - 1
			vm.NLocalAnnot++
			if em != nil {
				em.localLoad(now, frame, ins.x0, ins.pc)
			}
		case dSWL:
			cycles += annotCost - 1
			vm.NLocalAnnot++
			if em != nil {
				em.localStore(now, frame, ins.x0, ins.pc)
			}
		case dReadStats:
			cycles += readStatsCost - 1
			vm.NReadStats++
			if em != nil {
				em.readStats(now, ins.x0)
			}

		case dFusedConstAdd:
			// Micro-op 1 (the constant) already paid the shared prologue;
			// micro-op 2 (the add) pays its own step and cycle here. The
			// const register write is elided when nothing else reads it.
			if ins.x1 != 0 {
				regs[ins.a] = uint64(ins.imm)
			}
			steps++
			if steps > maxSteps {
				vm.sync(steps, cycles)
				return 0, ErrStepLimit
			}
			if steps&interruptMask == 0 && vm.interrupted.Load() {
				vm.sync(steps, cycles)
				return 0, ErrInterrupted
			}
			cycles++
			regs[ins.dst] = uint64(int64(regs[ins.b]) + ins.imm)
		case dFusedEqBr, dFusedNeBr, dFusedLtBr, dFusedLeBr, dFusedGtBr, dFusedGeBr:
			var v uint64
			switch ins.op {
			case dFusedEqBr:
				v = b2u(regs[ins.a] == regs[ins.b])
			case dFusedNeBr:
				v = b2u(regs[ins.a] != regs[ins.b])
			case dFusedLtBr:
				v = b2u(int64(regs[ins.a]) < int64(regs[ins.b]))
			case dFusedLeBr:
				v = b2u(int64(regs[ins.a]) <= int64(regs[ins.b]))
			case dFusedGtBr:
				v = b2u(int64(regs[ins.a]) > int64(regs[ins.b]))
			case dFusedGeBr:
				v = b2u(int64(regs[ins.a]) >= int64(regs[ins.b]))
			}
			// The compare result is architecturally visible: store it
			// exactly like the standalone compare would, then run the
			// branch micro-op's bookkeeping.
			regs[ins.dst] = v
			steps++
			if steps > maxSteps {
				vm.sync(steps, cycles)
				return 0, ErrStepLimit
			}
			if steps&interruptMask == 0 && vm.interrupted.Load() {
				vm.sync(steps, cycles)
				return 0, ErrInterrupted
			}
			cycles++
			if v != 0 {
				ip = int(ins.t0)
			} else {
				ip = int(ins.t1)
			}

		case dFusedAddr, dFusedAddrLoad:
			// The array-address chain. Dataflow runs through locals
			// (matchAddrChain guarantees the chain registers don't
			// alias); each absorbed micro-op writes its destination
			// register only if something outside the chain reads it,
			// then pays the next micro-op's step and cycle before it
			// executes — exactly the reference engine's bookkeeping
			// order, so a step limit or interrupt landing mid-chain
			// stops at the identical instruction.
			m := &addrMeta[ins.x0]
			if rest := int64(m.rest); steps+rest <= maxSteps &&
				steps>>interruptShift == (steps+rest)>>interruptShift {
				// Batched path: none of the absorbed micro-ops can hit
				// the step limit or cross an interrupt-poll boundary, so
				// their steps and cycles are paid up front in one add.
				// Only the trailing Load can fault, and its prologue has
				// by then fully run — the synced counters on the fault
				// path are already the reference engine's values.
				steps += rest
				cycles += rest
				var basev uint64
				if m.gidx >= 0 {
					basev = uint64(globals[m.gidx])
					if m.flags&wfBase != 0 {
						regs[m.baseReg] = basev
					}
				} else {
					basev = regs[m.baseReg]
				}
				var idxv uint64
				if m.slot >= 0 {
					idxv = slots[m.slot]
					vm.NLocalLoads++
					if m.flags&wfIdx != 0 {
						regs[m.idxReg] = idxv
					}
				} else {
					idxv = regs[m.idxReg]
				}
				if m.flags&wfC != 0 {
					regs[m.cReg] = uint64(m.shift)
				}
				off := uint64(int64(idxv) << (uint64(m.shift) & 63))
				if m.flags&wfOff != 0 {
					regs[m.offReg] = off
				}
				addrv := uint64(int64(basev) + int64(off))
				if m.flags&wfAddr != 0 {
					regs[m.addrReg] = addrv
				}
				if ins.op == dFusedAddrLoad {
					addr := uint32(addrv)
					w := addr / hydra.WordSize
					if addr%hydra.WordSize != 0 || int(w) >= len(mem) || addr >= heapTop {
						vm.sync(steps, cycles)
						return 0, dfault(f.name, ins.line, "bad load address 0x%x", addr)
					}
					regs[m.valReg] = mem[w]
					vm.NHeapLoads++
					if em != nil {
						em.heapLoad(cycles-1, addr, ins.pc)
					}
				}
				break
			}
			// Near a limit or poll boundary: step micro-op by micro-op so
			// the run stops at the identical instruction the reference
			// engine would stop at.
			var basev uint64
			if m.gidx >= 0 {
				basev = uint64(globals[m.gidx])
				if m.flags&wfBase != 0 {
					regs[m.baseReg] = basev
				}
				steps++
				if steps > maxSteps {
					vm.sync(steps, cycles)
					return 0, ErrStepLimit
				}
				if steps&interruptMask == 0 && vm.interrupted.Load() {
					vm.sync(steps, cycles)
					return 0, ErrInterrupted
				}
				cycles++
			} else {
				basev = regs[m.baseReg]
			}
			var idxv uint64
			if m.slot >= 0 {
				idxv = slots[m.slot]
				vm.NLocalLoads++
				if m.flags&wfIdx != 0 {
					regs[m.idxReg] = idxv
				}
				steps++
				if steps > maxSteps {
					vm.sync(steps, cycles)
					return 0, ErrStepLimit
				}
				if steps&interruptMask == 0 && vm.interrupted.Load() {
					vm.sync(steps, cycles)
					return 0, ErrInterrupted
				}
				cycles++
			} else {
				idxv = regs[m.idxReg]
			}
			if m.flags&wfC != 0 {
				regs[m.cReg] = uint64(m.shift)
			}
			steps++
			if steps > maxSteps {
				vm.sync(steps, cycles)
				return 0, ErrStepLimit
			}
			if steps&interruptMask == 0 && vm.interrupted.Load() {
				vm.sync(steps, cycles)
				return 0, ErrInterrupted
			}
			cycles++
			off := uint64(int64(idxv) << (uint64(m.shift) & 63))
			if m.flags&wfOff != 0 {
				regs[m.offReg] = off
			}
			steps++
			if steps > maxSteps {
				vm.sync(steps, cycles)
				return 0, ErrStepLimit
			}
			if steps&interruptMask == 0 && vm.interrupted.Load() {
				vm.sync(steps, cycles)
				return 0, ErrInterrupted
			}
			cycles++
			addrv := uint64(int64(basev) + int64(off))
			if m.flags&wfAddr != 0 {
				regs[m.addrReg] = addrv
			}
			if ins.op == dFusedAddrLoad {
				steps++
				if steps > maxSteps {
					vm.sync(steps, cycles)
					return 0, ErrStepLimit
				}
				if steps&interruptMask == 0 && vm.interrupted.Load() {
					vm.sync(steps, cycles)
					return 0, ErrInterrupted
				}
				now = cycles
				cycles++
				addr := uint32(addrv)
				w := addr / hydra.WordSize
				if addr%hydra.WordSize != 0 || int(w) >= len(mem) || addr >= heapTop {
					vm.sync(steps, cycles)
					return 0, dfault(f.name, ins.line, "bad load address 0x%x", addr)
				}
				regs[m.valReg] = mem[w]
				vm.NHeapLoads++
				if em != nil {
					em.heapLoad(now, addr, ins.pc)
				}
			}

		case dFusedLenBr:
			// The loop-header test: [LdLoc] LdGlob; ArrLen; cmp; BrIf.
			m := &lenMeta[ins.x0]
			if rest := int64(m.rest); steps+rest <= maxSteps &&
				steps>>interruptShift == (steps+rest)>>interruptShift {
				// Batched path (see dFusedAddr). The ArrLen fault lands
				// two micro-ops (compare, branch) before the end of the
				// chain, so the pre-paid counters are unwound by two.
				steps += rest
				cycles += rest
				var iv uint64
				if m.slot >= 0 {
					iv = slots[m.slot]
					vm.NLocalLoads++
					if m.flags&wfLd != 0 {
						regs[m.ldDst] = iv
					}
				} else {
					iv = regs[m.cmpA]
				}
				gv := uint64(globals[m.gidx])
				if m.flags&wfG != 0 {
					regs[m.gDst] = gv
				}
				base := uint32(gv)
				alen, aok := vm.arrays[base]
				if !aok {
					vm.sync(steps-2, cycles-2)
					return 0, dfault(f.name, m.line, "len of non-array address 0x%x", base)
				}
				lenv := uint64(alen)
				if m.flags&wfLen != 0 {
					regs[m.lenDst] = lenv
				}
				var v uint64
				switch dop(m.cmp) {
				case dEq:
					v = b2u(iv == lenv)
				case dNe:
					v = b2u(iv != lenv)
				case dLt:
					v = b2u(int64(iv) < int64(lenv))
				case dLe:
					v = b2u(int64(iv) <= int64(lenv))
				case dGt:
					v = b2u(int64(iv) > int64(lenv))
				case dGe:
					v = b2u(int64(iv) >= int64(lenv))
				}
				if m.flags&wfCmp != 0 {
					regs[m.cmpDst] = v
				}
				if v != 0 {
					ip = int(ins.t0)
				} else {
					ip = int(ins.t1)
				}
				break
			}
			var iv uint64
			if m.slot >= 0 {
				iv = slots[m.slot]
				vm.NLocalLoads++
				if m.flags&wfLd != 0 {
					regs[m.ldDst] = iv
				}
				steps++
				if steps > maxSteps {
					vm.sync(steps, cycles)
					return 0, ErrStepLimit
				}
				if steps&interruptMask == 0 && vm.interrupted.Load() {
					vm.sync(steps, cycles)
					return 0, ErrInterrupted
				}
				cycles++
			} else {
				iv = regs[m.cmpA]
			}
			gv := uint64(globals[m.gidx])
			if m.flags&wfG != 0 {
				regs[m.gDst] = gv
			}
			steps++
			if steps > maxSteps {
				vm.sync(steps, cycles)
				return 0, ErrStepLimit
			}
			if steps&interruptMask == 0 && vm.interrupted.Load() {
				vm.sync(steps, cycles)
				return 0, ErrInterrupted
			}
			cycles++
			base := uint32(gv)
			alen, aok := vm.arrays[base]
			if !aok {
				vm.sync(steps, cycles)
				return 0, dfault(f.name, m.line, "len of non-array address 0x%x", base)
			}
			lenv := uint64(alen)
			if m.flags&wfLen != 0 {
				regs[m.lenDst] = lenv
			}
			steps++
			if steps > maxSteps {
				vm.sync(steps, cycles)
				return 0, ErrStepLimit
			}
			if steps&interruptMask == 0 && vm.interrupted.Load() {
				vm.sync(steps, cycles)
				return 0, ErrInterrupted
			}
			cycles++
			var v uint64
			switch dop(m.cmp) {
			case dEq:
				v = b2u(iv == lenv)
			case dNe:
				v = b2u(iv != lenv)
			case dLt:
				v = b2u(int64(iv) < int64(lenv))
			case dLe:
				v = b2u(int64(iv) <= int64(lenv))
			case dGt:
				v = b2u(int64(iv) > int64(lenv))
			case dGe:
				v = b2u(int64(iv) >= int64(lenv))
			}
			if m.flags&wfCmp != 0 {
				regs[m.cmpDst] = v
			}
			steps++
			if steps > maxSteps {
				vm.sync(steps, cycles)
				return 0, ErrStepLimit
			}
			if steps&interruptMask == 0 && vm.interrupted.Load() {
				vm.sync(steps, cycles)
				return 0, ErrInterrupted
			}
			cycles++
			if v != 0 {
				ip = int(ins.t0)
			} else {
				ip = int(ins.t1)
			}

		case dFusedIncLoc:
			m := &incMeta[ins.x0]
			if steps+3 <= maxSteps && steps>>interruptShift == (steps+3)>>interruptShift {
				// Batched path (see dFusedAddr); no micro-op can fault.
				steps += 3
				cycles += 3
				oldv := slots[m.slot]
				vm.NLocalLoads++
				if m.flags&wfLd != 0 {
					regs[m.ldDst] = oldv
				}
				if m.flags&wfC != 0 {
					regs[m.cReg] = uint64(m.imm)
				}
				sum := uint64(int64(oldv) + m.imm)
				if m.flags&wfAdd != 0 {
					regs[m.addDst] = sum
				}
				slots[m.dslot] = sum
				vm.NLocalStores++
				break
			}
			oldv := slots[m.slot]
			vm.NLocalLoads++
			if m.flags&wfLd != 0 {
				regs[m.ldDst] = oldv
			}
			steps++
			if steps > maxSteps {
				vm.sync(steps, cycles)
				return 0, ErrStepLimit
			}
			if steps&interruptMask == 0 && vm.interrupted.Load() {
				vm.sync(steps, cycles)
				return 0, ErrInterrupted
			}
			cycles++
			if m.flags&wfC != 0 {
				regs[m.cReg] = uint64(m.imm)
			}
			steps++
			if steps > maxSteps {
				vm.sync(steps, cycles)
				return 0, ErrStepLimit
			}
			if steps&interruptMask == 0 && vm.interrupted.Load() {
				vm.sync(steps, cycles)
				return 0, ErrInterrupted
			}
			cycles++
			sum := uint64(int64(oldv) + m.imm)
			if m.flags&wfAdd != 0 {
				regs[m.addDst] = sum
			}
			steps++
			if steps > maxSteps {
				vm.sync(steps, cycles)
				return 0, ErrStepLimit
			}
			if steps&interruptMask == 0 && vm.interrupted.Load() {
				vm.sync(steps, cycles)
				return 0, ErrInterrupted
			}
			cycles++
			slots[m.dslot] = sum
			vm.NLocalStores++

		default:
			vm.sync(steps, cycles)
			return 0, dfault(f.name, ins.line, "unknown opcode %d", uint8(ins.x0))
		}
	}
}
