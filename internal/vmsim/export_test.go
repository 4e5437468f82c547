package vmsim

import "fmt"

// LatchFusion walks c's decoded stream. It counts the fused loop latches
// (increment, Br and trampoline in one dispatch), the folded Br-into-
// trampoline branches and the trampoline headers, and describes every
// branch that still reaches an annotation trampoline without them: a
// branch target that is a bare annotation op, a plain Br into a header,
// or an increment that precedes a folded Br without absorbing it.
func LatchFusion(c *Code) (latches, brs, headers int, unfused []string) {
	for _, f := range c.funcs {
		code := f.instrs
		bad := func(ip int, format string, args ...any) {
			unfused = append(unfused, fmt.Sprintf("%s@%d: ", f.name, ip)+fmt.Sprintf(format, args...))
		}
		for ip := range code {
			ins := &code[ip]
			var targets []int32
			switch ins.op {
			case dTramp:
				headers++
			case dBrTramp:
				brs++
				targets = []int32{ins.t0}
			case dFusedIncLocBr:
				latches++
				targets = []int32{ins.t0}
			case dFusedIncLoc:
				if ip+1 < len(code) && code[ip+1].op == dBrTramp {
					bad(ip, "increment before a Br into a trampoline is not fused with it")
				}
			case dBr:
				targets = []int32{ins.t0}
				if code[ins.t0].op == dTramp {
					bad(ip, "plain Br into the trampoline at %d", ins.t0)
				}
			case dBrIf, dFusedEqBr, dFusedNeBr, dFusedLtBr, dFusedLeBr, dFusedGtBr, dFusedGeBr, dFusedLenBr:
				targets = []int32{ins.t0, ins.t1}
			}
			for _, t := range targets {
				switch code[t].op {
				case dSLoop, dELoop, dEOI, dReadStats:
					bad(ip, "op %d targets an unfused trampoline at %d", ins.op, t)
				}
			}
		}
	}
	return latches, brs, headers, unfused
}
