package cpu

import (
	"math"

	"hbat/internal/isa"
	"hbat/internal/ptrace"
)

// dispatch renames up to IssueWidth fetched instructions per cycle into
// the re-order buffer (and, for memory operations, the load/store
// queue). Per Section 4.1, dispatch stalls while any detected TLB miss
// is outstanding: speculative misses are never serviced, so the machine
// waits until the missing instruction is squashed or committed.
func (m *Machine) dispatch() {
	if m.tlbMissOutstanding > 0 {
		m.stats.DispatchTLBStalls++
		return
	}
	for w := 0; w < m.cfg.IssueWidth; w++ {
		fi := m.peekFetched()
		if fi == nil {
			if w == 0 {
				m.stats.DispatchEmptyCycles++
			}
			return
		}
		if m.rob.full() {
			if w == 0 {
				m.stats.DispatchROBFull++
			}
			return
		}
		isMem := fi.inst != nil && fi.inst.IsMem()
		if isMem && m.lsqCount >= m.cfg.LSQSize {
			if w == 0 {
				m.stats.DispatchLSQFull++
			}
			return
		}
		m.popFetched()

		idx := m.rob.push()
		e := m.rob.at(idx)
		e.seq = m.seq
		m.seq++
		e.pc = fi.pc
		e.inst = fi.inst
		e.predNextPC = fi.predNextPC
		e.predTaken = fi.predTaken
		e.ghrSnap = fi.ghrSnap
		if m.tracer != nil {
			m.tracer.Emit(e.seq, fi.fetchCycle, ptrace.KFetch, e.pc, e.inst, 0)
			m.tracer.Emit(e.seq, m.cycle, ptrace.KDispatch, e.pc, e.inst, int64(m.rob.count))
		}

		if fi.inst == nil {
			// Wrong-path fetch beyond the text segment: a placeholder
			// that completes immediately and must be squashed before
			// commit.
			m.rob.setState(idx, sDone)
			e.nextPC = fi.pc + isa.InstBytes
			if m.tracer != nil {
				m.tracer.Emit(e.seq, m.cycle, ptrace.KComplete, e.pc, e.inst, 0)
			}
			continue
		}
		in := fi.inst
		switch in.Class() {
		case isa.ClassNop, isa.ClassHalt:
			m.rob.setState(idx, sDone)
			e.nextPC = fi.pc + isa.InstBytes
			if m.tracer != nil {
				m.tracer.Emit(e.seq, m.cycle, ptrace.KComplete, e.pc, e.inst, 0)
			}
			continue
		}
		e.isCtrl = in.IsCtrl()
		e.isLoad = in.IsLoad()
		e.isStore = in.IsStore()

		var buf [4]isa.Reg
		for _, r := range in.Sources(buf[:0]) {
			op := operand{reg: r, producer: -1}
			if r != isa.Zero {
				if p := m.rename[r]; p >= 0 {
					op.producer = p
					op.slot = m.renameSlot[r]
					op.seq = m.rob.at(int(p)).seq
				} else {
					op.val = m.regs[r]
				}
			}
			e.srcs[e.nsrc] = op
			e.nsrc++
		}
		for _, r := range in.Dests(buf[:0]) {
			e.dests[e.ndest] = dest{reg: r, readyAt: math.MaxInt64}
			if r != isa.Zero {
				m.rename[r] = int32(idx)
				m.renameSlot[r] = int8(e.ndest)
			}
			e.ndest++
		}
		if isMem {
			m.lsqCount++
			e.memWidth = in.MemBytes()
		}
		m.rob.setState(idx, sWaiting)
		m.issuePoll |= 1 << uint(idx)
	}
}
