package cpu

import (
	"fmt"
	"math"
	"math/bits"

	"hbat/internal/isa"
	"hbat/internal/ptrace"
	"hbat/internal/tlb"
	"hbat/internal/vm"
)

// operandReady reports whether source operand i of e is available this
// cycle, reading its value into the operand record when it is.
func (m *Machine) operandReady(e *robEntry, i int) bool {
	op := &e.srcs[i]
	if op.producer < 0 {
		return true
	}
	p := m.rob.at(int(op.producer))
	if !p.valid || p.seq != op.seq {
		// The producer has committed (its slot may have been
		// recycled); the architected register file holds its value.
		// No younger writer can have overwritten it: writers
		// younger than this instruction commit after it.
		op.val = m.regs[op.reg]
		op.producer = -1
		return true
	}
	d := &p.dests[op.slot]
	if d.readyAt > m.cycle {
		return false
	}
	op.val = d.val
	op.producer = -1
	return true
}

// issueOperandsReady reports whether the operands needed to ISSUE the
// entry e at slot idx are available, parking it when one is not. Stores
// issue on their address operands alone (Table 1: store addresses become
// known to the load/store queue as soon as they can be computed); the
// data value is captured later, before commit.
func (m *Machine) issueOperandsReady(idx int, e *robEntry) bool {
	first := 0
	if e.isStore {
		first = 1 // srcs[0] is the store value
	}
	for i := first; i < e.nsrc; i++ {
		if !m.operandReady(e, i) {
			m.park(idx, &e.srcs[i])
			return false
		}
	}
	return true
}

// park takes the waiting entry at slot idx out of issue's poll set until
// operand op, not ready now, can be: at the cycle its producer's result
// is due, or, while the producer has not computed it yet, when produce
// schedules it. The entry cannot issue before then, so not polling it
// changes nothing; a value read later from the register file is the
// same value (see operandReady).
func (m *Machine) park(idx int, op *operand) {
	bit := uint64(1) << uint(idx)
	m.issuePoll &^= bit
	p := m.rob.at(int(op.producer))
	if at := p.dests[op.slot].readyAt; at != math.MaxInt64 {
		m.issueWheel[at%issueWheelSize] |= bit
	} else {
		p.waiters |= bit
	}
}

// produce schedules destination slot of e to hold val from cycle at, and
// wakes the entries parked on e's results by moving them to that cycle's
// wheel slot (an entry waiting on e's other destination polls once more
// and parks again).
func (m *Machine) produce(e *robEntry, slot int, val uint64, at int64) {
	e.dests[slot].val = val
	e.dests[slot].readyAt = at
	m.issueWheel[at%issueWheelSize] |= e.waiters
	e.waiters = 0
}

// wawHazard implements the in-order model's "no renaming" stall: an
// instruction may not issue while an older, incomplete instruction
// writes one of its destination registers.
func (m *Machine) wawHazard(idx int, e *robEntry) bool {
	for j := m.rob.head; j != idx; j = m.rob.wrap(j + 1) {
		o := m.rob.at(j)
		if o.state == sDone && m.cycle >= o.doneAt {
			continue
		}
		for a := 0; a < o.ndest; a++ {
			if o.dests[a].readyAt <= m.cycle {
				continue
			}
			for b := 0; b < e.ndest; b++ {
				if o.dests[a].reg == e.dests[b].reg && o.dests[a].reg != isa.Zero {
					return true
				}
			}
		}
	}
	return false
}

// olderStoreAddrsKnown implements the load/store queue's ordering rule
// (Table 1): a load may execute only when every prior store address has
// been computed.
func (m *Machine) olderStoreAddrsKnown(idx int) bool {
	return m.rob.ages(setStoreNoAddr)&m.rob.olderMask(idx) == 0
}

// acquireFU claims a functional unit for e's class this cycle,
// modeling Table 1's pool: 8 integer ALUs, 4 load/store units, 4 FP
// adders, and single integer and FP multiply/divide units whose divides
// are unpipelined (issue interval = latency).
func (m *Machine) acquireFU(e *robEntry) (lat int64, ok bool) {
	switch e.inst.Class() {
	case isa.ClassIntALU, isa.ClassBranch, isa.ClassJump:
		if m.intALUUsed >= m.cfg.IntALUs {
			return 0, false
		}
		m.intALUUsed++
		return m.cfg.IntALULat, true
	case isa.ClassIntMult:
		if m.intMDFree > m.cycle {
			return 0, false
		}
		m.intMDFree = m.cycle + 1
		return m.cfg.IntMultLat, true
	case isa.ClassIntDiv:
		if m.intMDFree > m.cycle {
			return 0, false
		}
		m.intMDFree = m.cycle + m.cfg.IntDivLat
		return m.cfg.IntDivLat, true
	case isa.ClassFPAdd:
		if m.fpAddUsed >= m.cfg.FPAdders {
			return 0, false
		}
		m.fpAddUsed++
		return m.cfg.FPAddLat, true
	case isa.ClassFPMult:
		if m.fpMDFree > m.cycle {
			return 0, false
		}
		m.fpMDFree = m.cycle + 1
		return m.cfg.FPMultLat, true
	case isa.ClassFPDiv:
		if m.fpMDFree > m.cycle {
			return 0, false
		}
		m.fpMDFree = m.cycle + m.cfg.FPDivLat
		return m.cfg.FPDivLat, true
	case isa.ClassLoad, isa.ClassStore:
		if m.ldstUsed >= m.cfg.LdStUnits {
			return 0, false
		}
		m.ldstUsed++
		return m.cfg.LoadLat, true
	}
	return m.cfg.IntALULat, true
}

// issue selects up to IssueWidth ready instructions. The out-of-order
// model considers every waiting entry oldest-first; the in-order model
// stops at the first one that cannot issue (stall-on-hazard, Table 1).
// Entries parked on an operand (see park) cannot issue and are not
// polled.
func (m *Machine) issue() {
	due := &m.issueWheel[m.cycle%issueWheelSize]
	m.issuePoll |= *due
	*due = 0
	issued := 0
	for ages := m.rob.ages(setWaiting); ages != 0 && issued < m.cfg.IssueWidth; ages &= ages - 1 {
		idx := m.rob.slotAt(bits.TrailingZeros64(ages))
		e := m.rob.at(idx)
		canIssue := m.issuePoll&(1<<uint(idx)) != 0 && m.issueOperandsReady(idx, e)
		if canIssue && m.cfg.InOrder && m.wawHazard(idx, e) {
			canIssue = false
		}
		if canIssue && e.isLoad && !m.olderStoreAddrsKnown(idx) {
			canIssue = false
		}
		var lat int64
		if canIssue {
			var ok bool
			lat, ok = m.acquireFU(e)
			canIssue = ok
		}
		if !canIssue {
			if m.cfg.InOrder {
				return // in-order issue stalls the pipeline at the first hazard
			}
			continue
		}
		issued++
		m.stats.Issued++
		if m.tracer != nil {
			m.tracer.Emit(e.seq, m.cycle, ptrace.KIssue, e.pc, e.inst, lat)
		}
		m.execute(idx, e, lat)
	}
}

// execute computes an issued instruction's results (execution-driven:
// actual values, even on wrong paths) and schedules its completion.
func (m *Machine) execute(idx int, e *robEntry, lat int64) {
	in := e.inst
	switch in.Class() {
	case isa.ClassBranch:
		rs, rt := e.srcs[0].val, uint64(0)
		if e.nsrc > 1 {
			rt = e.srcs[1].val
		}
		taken := isa.BranchTaken(in, rs, rt)
		e.nextPC = e.pc + isa.InstBytes
		if taken {
			e.nextPC = in.Target
		}
		e.actualTaken(taken)
		m.rob.setState(idx, sExecuting)
		e.doneAt = m.cycle + lat

	case isa.ClassJump:
		switch in.Op {
		case isa.J:
			e.nextPC = in.Target
		case isa.Jal:
			e.nextPC = in.Target
			m.produce(e, 0, e.pc+isa.InstBytes, m.cycle+lat)
		case isa.Jr:
			e.nextPC = e.srcs[0].val
		case isa.Jalr:
			e.nextPC = e.srcs[0].val
			m.produce(e, 0, e.pc+isa.InstBytes, m.cycle+lat)
		}
		m.rob.setState(idx, sExecuting)
		e.doneAt = m.cycle + lat

	case isa.ClassLoad:
		base := e.srcs[0].val
		idxv := uint64(0)
		if in.Mode == isa.AMReg {
			idxv = e.srcs[1].val
		}
		addr, newBase, upd := isa.EffAddr(in, base, idxv)
		e.effAddr = addr
		if upd {
			// The base update is ready at address generation.
			m.produce(e, 1, newBase, m.cycle+1)
		}
		m.rob.setState(idx, sMemReq)
		e.memReqAt = m.cycle + 1
		m.stats.IssuedMem++

	case isa.ClassStore:
		base := e.srcs[1].val
		idxv := uint64(0)
		if in.Mode == isa.AMReg {
			idxv = e.srcs[2].val
		}
		addr, newBase, upd := isa.EffAddr(in, base, idxv)
		e.effAddr = addr
		if upd {
			m.produce(e, 0, newBase, m.cycle+1)
		}
		m.rob.setState(idx, sMemReq)
		e.memReqAt = m.cycle + 1
		m.stats.IssuedMem++

	default: // integer and FP computation
		rs, rt := uint64(0), uint64(0)
		if e.nsrc > 0 {
			rs = e.srcs[0].val
		}
		if e.nsrc > 1 {
			rt = e.srcs[1].val
		}
		m.produce(e, 0, isa.ALUEval(in, rs, rt, e.pc), m.cycle+lat)
		m.rob.setState(idx, sExecuting)
		e.doneAt = m.cycle + lat
	}
}

// memExecute advances memory operations past address generation: the
// TLB request (in instruction age order, so port arbitration favors
// the earliest issued instruction), page-table walks, store-forwarding,
// and data-cache access.
func (m *Machine) memExecute() {
	for ages := m.rob.ages(setMem); ages != 0 && m.err == nil; ages &= ages - 1 {
		idx := m.rob.slotAt(bits.TrailingZeros64(ages))
		e := m.rob.at(idx)
		switch e.state {
		case sMemWalk:
			m.advanceWalk(idx, e)
		case sMemReq:
			if m.cycle >= e.memReqAt {
				m.memRequest(idx, e)
			}
		case sStoreData:
			if m.operandReady(e, 0) {
				e.storeVal = e.srcs[0].val
				m.rob.setState(idx, sDone)
				if e.doneAt < m.cycle {
					e.doneAt = m.cycle
				}
				if m.tracer != nil {
					m.tracer.Emit(e.seq, m.cycle, ptrace.KComplete, e.pc, e.inst, 0)
				}
			}
		}
	}
}

// advanceWalk handles an entry whose translation missed the TLB. Per
// Section 4.1, the walk begins only when the instruction is no longer
// speculative (it has reached the ROB head, i.e. all earlier-issued
// instructions have completed) and takes a fixed TLBMissLatency.
func (m *Machine) advanceWalk(idx int, e *robEntry) {
	if !e.walking {
		if m.rob.headEntry() == e {
			e.walking = true
			e.walkDone = m.cycle + m.cfg.TLBMissLatency
			if m.tracer != nil {
				m.tracer.Emit(e.seq, m.cycle, ptrace.KWalkStart, e.pc, e.inst, m.cfg.TLBMissLatency)
			}
		}
		return
	}
	m.stats.TLBWalkCycles++
	if m.cycle < e.walkDone {
		return
	}
	vpn := e.effAddr >> m.pageBits
	if _, err := m.DTLB.Fill(vpn, m.cycle); err != nil {
		m.err = fmt.Errorf("cpu: pc 0x%x %s addr 0x%x: %w", e.pc, e.inst, e.effAddr, err)
		return
	}
	if m.tracer != nil {
		m.tracer.Emit(e.seq, m.cycle, ptrace.KWalkEnd, e.pc, e.inst, m.cfg.TLBMissLatency)
	}
	e.walking = false
	m.rob.setState(idx, sMemReq)
	e.memReqAt = m.cycle + 1
	// Younger instructions that missed on the same page were waiting on
	// this walk; send them back to the TLB rather than walking again.
	for ages := m.rob.ages(setMem); ages != 0; ages &= ages - 1 {
		j := m.rob.slotAt(bits.TrailingZeros64(ages))
		o := m.rob.at(j)
		if o.state == sMemWalk && !o.walking && o.effAddr>>m.pageBits == vpn {
			m.rob.setState(j, sMemReq)
			o.memReqAt = m.cycle + 1
		}
	}
}

func offHiOf(in *isa.Inst) uint8 {
	if in.IsLoad() && in.Mode == isa.AMImm {
		return uint8(uint16(in.Imm)>>12) & 0xF
	}
	return 0
}

// memRequest performs one attempt at translating and accessing memory
// for a load or store whose address is generated.
func (m *Machine) memRequest(idx int, e *robEntry) {
	if m.cfg.VirtualCache {
		m.memRequestVC(idx, e)
		return
	}
	req := tlb.Request{
		VPN:   e.effAddr >> m.pageBits,
		Write: e.isStore,
		Base:  e.inst.Rs,
		OffHi: offHiOf(e.inst),
		Load:  e.isLoad,
	}
	res := m.DTLB.Lookup(req, m.cycle)
	switch res.Outcome {
	case tlb.NoPort:
		m.stats.TLBRetries++
		m.metrics.replayTLBNoPort.Inc()
		m.metrics.noPortThisCycle++
		if m.tracer != nil {
			m.tracer.Emit(e.seq, m.cycle, ptrace.KTLBNoPort, e.pc, e.inst, 0)
		}
		return
	case tlb.Miss:
		m.rob.setState(idx, sMemWalk)
		e.walking = false
		if m.tracer != nil {
			m.tracer.Emit(e.seq, m.cycle, ptrace.KTLBMiss, e.pc, e.inst, 0)
		}
		if !e.missCharged() {
			e.setMissCharged()
			m.tlbMissOutstanding++
		}
		return
	}
	m.metrics.transExtra.Observe(res.Extra)
	if m.tracer != nil {
		m.tracer.Emit(e.seq, m.cycle, ptrace.KTLBHit, e.pc, e.inst, res.Extra)
	}

	pte := res.PTE
	need := vm.PermRead
	if e.isStore {
		need = vm.PermWrite
	}
	if pte.Perm&need != need {
		// Protection fault: fatal if this instruction commits;
		// wrong-path faults are squashed harmlessly.
		e.setFaulted()
		m.rob.setState(idx, sDone)
		e.doneAt = m.cycle + 1
		if m.tracer != nil {
			m.tracer.Emit(e.seq, m.cycle, ptrace.KFault, e.pc, e.inst, 0)
			m.tracer.Emit(e.seq, m.cycle, ptrace.KComplete, e.pc, e.inst, 0)
		}
		return
	}
	e.paddr = pte.PFN<<m.pageBits | (e.effAddr & m.pageMask)

	if e.isStore {
		// Translated: the address is in the store queue. The store
		// completes once its data value arrives; the data-cache write
		// happens at commit.
		e.doneAt = m.cycle + 1 + res.Extra
		if m.operandReady(e, 0) {
			e.storeVal = e.srcs[0].val
			m.rob.setState(idx, sDone)
			if m.tracer != nil {
				m.tracer.Emit(e.seq, m.cycle, ptrace.KComplete, e.pc, e.inst, 0)
			}
		} else {
			m.rob.setState(idx, sStoreData)
		}
		return
	}

	// Load: try store-forwarding from the youngest older overlapping
	// store, else access the data cache.
	fwdVal, fwdOK, mustWait := m.forwardFromStore(idx, e)
	if mustWait {
		// Partially overlapping older store: wait for it to commit.
		// Re-requesting next cycle re-translates, which is what a
		// replayed access does.
		m.metrics.replayStoreWait.Inc()
		if m.tracer != nil {
			m.tracer.Emit(e.seq, m.cycle, ptrace.KStoreWait, e.pc, e.inst, 0)
		}
		return
	}
	var extraCache int64
	if !fwdOK {
		var ok bool
		extraCache, ok = m.dcache.Access(e.paddr, false, m.cycle)
		if !ok {
			m.metrics.replayCachePort.Inc()
			if m.tracer != nil {
				m.tracer.Emit(e.seq, m.cycle, ptrace.KDCachePort, e.pc, e.inst, 0)
			}
			return // no data-cache port; retry next cycle
		}
		fwdVal = m.readMem(e.paddr, e.memWidth)
		if m.tracer != nil {
			k := ptrace.KDCacheHit
			if extraCache > 0 {
				k = ptrace.KDCacheMiss
			}
			m.tracer.Emit(e.seq, m.cycle, k, e.pc, e.inst, extraCache)
		}
	}
	done := m.cycle + 1 + res.Extra + extraCache
	m.produce(e, 0, isa.LoadExtend(e.inst.Op, fwdVal), done)
	m.rob.setState(idx, sDone)
	e.doneAt = done
	if m.tracer != nil {
		m.tracer.Emit(e.seq, m.cycle, ptrace.KComplete, e.pc, e.inst, done-m.cycle)
	}
}

// memRequestVC is the virtual-address-cache variant of memRequest:
// the cache is probed by virtual address first, and the translation
// device is involved only when the access misses the cache (or the
// line was warmed by a wrong-path access to a page with no mapping).
func (m *Machine) memRequestVC(idx int, e *robEntry) {
	vpn := e.effAddr >> m.pageBits

	// Store-forwarding is entirely virtual: a forwarded load needs no
	// translation at all in this organization.
	if e.isLoad {
		fwdVal, fwdOK, mustWait := m.forwardFromStore(idx, e)
		if mustWait {
			m.metrics.replayStoreWait.Inc()
			if m.tracer != nil {
				m.tracer.Emit(e.seq, m.cycle, ptrace.KStoreWait, e.pc, e.inst, 0)
			}
			return
		}
		if fwdOK {
			done := m.cycle + 1
			m.produce(e, 0, isa.LoadExtend(e.inst.Op, fwdVal), done)
			m.rob.setState(idx, sDone)
			e.doneAt = done
			if m.tracer != nil {
				m.tracer.Emit(e.seq, m.cycle, ptrace.KComplete, e.pc, e.inst, 1)
			}
			return
		}
	}

	if m.dcache.Probe(e.effAddr) {
		if pte, ok := m.AS.Probe(vpn); ok {
			need := vm.PermRead
			if e.isStore {
				need = vm.PermWrite
			}
			if pte.Perm&need != need {
				e.setFaulted()
				m.rob.setState(idx, sDone)
				e.doneAt = m.cycle + 1
				if m.tracer != nil {
					m.tracer.Emit(e.seq, m.cycle, ptrace.KFault, e.pc, e.inst, 0)
					m.tracer.Emit(e.seq, m.cycle, ptrace.KComplete, e.pc, e.inst, 0)
				}
				return
			}
			e.paddr = pte.PFN<<m.pageBits | (e.effAddr & m.pageMask)
			if e.isStore {
				e.doneAt = m.cycle + 1
				if m.operandReady(e, 0) {
					e.storeVal = e.srcs[0].val
					m.rob.setState(idx, sDone)
					if m.tracer != nil {
						m.tracer.Emit(e.seq, m.cycle, ptrace.KComplete, e.pc, e.inst, 0)
					}
				} else {
					m.rob.setState(idx, sStoreData)
				}
				return
			}
			extraC, ok := m.dcache.Access(e.effAddr, false, m.cycle)
			if !ok {
				m.metrics.replayCachePort.Inc()
				if m.tracer != nil {
					m.tracer.Emit(e.seq, m.cycle, ptrace.KDCachePort, e.pc, e.inst, 0)
				}
				return // no port; retry
			}
			done := m.cycle + 1 + extraC
			m.produce(e, 0, isa.LoadExtend(e.inst.Op, m.readMem(e.paddr, e.memWidth)), done)
			m.rob.setState(idx, sDone)
			e.doneAt = done
			if m.tracer != nil {
				k := ptrace.KDCacheHit
				if extraC > 0 {
					k = ptrace.KDCacheMiss
				}
				m.tracer.Emit(e.seq, m.cycle, k, e.pc, e.inst, extraC)
				m.tracer.Emit(e.seq, m.cycle, ptrace.KComplete, e.pc, e.inst, done-m.cycle)
			}
			return
		}
		// A wrong-path access warmed this line before its page was ever
		// mapped; fall through to the translating path so a correct-path
		// access takes the walk.
	}

	// Cache miss: physical storage must be addressed, so the
	// translation device is consulted (with its usual port and walk
	// behaviour) — the only time this organization pays for translation.
	req := tlb.Request{
		VPN:   vpn,
		Write: e.isStore,
		Base:  e.inst.Rs,
		OffHi: offHiOf(e.inst),
		Load:  e.isLoad,
	}
	res := m.DTLB.Lookup(req, m.cycle)
	switch res.Outcome {
	case tlb.NoPort:
		m.stats.TLBRetries++
		m.metrics.replayTLBNoPort.Inc()
		m.metrics.noPortThisCycle++
		if m.tracer != nil {
			m.tracer.Emit(e.seq, m.cycle, ptrace.KTLBNoPort, e.pc, e.inst, 0)
		}
		return
	case tlb.Miss:
		m.rob.setState(idx, sMemWalk)
		e.walking = false
		if m.tracer != nil {
			m.tracer.Emit(e.seq, m.cycle, ptrace.KTLBMiss, e.pc, e.inst, 0)
		}
		if !e.missCharged() {
			e.setMissCharged()
			m.tlbMissOutstanding++
		}
		return
	}
	m.metrics.transExtra.Observe(res.Extra)
	if m.tracer != nil {
		m.tracer.Emit(e.seq, m.cycle, ptrace.KTLBHit, e.pc, e.inst, res.Extra)
	}
	pte := res.PTE
	need := vm.PermRead
	if e.isStore {
		need = vm.PermWrite
	}
	if pte.Perm&need != need {
		e.setFaulted()
		m.rob.setState(idx, sDone)
		e.doneAt = m.cycle + 1
		if m.tracer != nil {
			m.tracer.Emit(e.seq, m.cycle, ptrace.KFault, e.pc, e.inst, 0)
			m.tracer.Emit(e.seq, m.cycle, ptrace.KComplete, e.pc, e.inst, 0)
		}
		return
	}
	e.paddr = pte.PFN<<m.pageBits | (e.effAddr & m.pageMask)
	if e.isStore {
		e.doneAt = m.cycle + 1 + res.Extra
		if m.operandReady(e, 0) {
			e.storeVal = e.srcs[0].val
			m.rob.setState(idx, sDone)
			if m.tracer != nil {
				m.tracer.Emit(e.seq, m.cycle, ptrace.KComplete, e.pc, e.inst, 0)
			}
		} else {
			m.rob.setState(idx, sStoreData)
		}
		return
	}
	extraC, ok := m.dcache.Access(e.effAddr, false, m.cycle)
	if !ok {
		m.metrics.replayCachePort.Inc()
		if m.tracer != nil {
			m.tracer.Emit(e.seq, m.cycle, ptrace.KDCachePort, e.pc, e.inst, 0)
		}
		return
	}
	done := m.cycle + 1 + res.Extra + extraC
	m.produce(e, 0, isa.LoadExtend(e.inst.Op, m.readMem(e.paddr, e.memWidth)), done)
	m.rob.setState(idx, sDone)
	e.doneAt = done
	if m.tracer != nil {
		k := ptrace.KDCacheHit
		if extraC > 0 {
			k = ptrace.KDCacheMiss
		}
		m.tracer.Emit(e.seq, m.cycle, k, e.pc, e.inst, extraC)
		m.tracer.Emit(e.seq, m.cycle, ptrace.KComplete, e.pc, e.inst, done-m.cycle)
	}
}

// forwardFromStore searches older in-flight stores, youngest first, for
// one overlapping this load. Exact address+width matches forward the
// raw value; partial overlaps force the load to wait (mustWait).
func (m *Machine) forwardFromStore(idx int, e *robEntry) (val uint64, ok, mustWait bool) {
	lo, hi := e.effAddr, e.effAddr+uint64(e.memWidth)
	for older := m.rob.ages(setStoreAddr) & m.rob.olderMask(idx); older != 0; {
		p := 63 - bits.LeadingZeros64(older)
		older &^= 1 << uint(p)
		o := m.rob.at(m.rob.slotAt(p))
		slo, shi := o.effAddr, o.effAddr+uint64(o.memWidth)
		if hi <= slo || shi <= lo {
			continue
		}
		if slo == lo && o.memWidth == e.memWidth && o.state == sDone {
			return o.storeVal, true, false
		}
		// Partial overlap, or the store's data isn't ready yet.
		return 0, false, true
	}
	return 0, false, false
}

// complete finishes executing instructions whose latency has elapsed
// and resolves control flow, triggering misprediction recovery.
func (m *Machine) complete() {
	for ages := m.rob.ages(setExec); ages != 0; ages &= ages - 1 {
		idx := m.rob.slotAt(bits.TrailingZeros64(ages))
		e := m.rob.at(idx)
		if m.cycle < e.doneAt {
			continue
		}
		m.rob.setState(idx, sDone)
		if m.tracer != nil {
			m.tracer.Emit(e.seq, m.cycle, ptrace.KComplete, e.pc, e.inst, 0)
		}
		if e.isCtrl && !e.resolved {
			e.resolved = true
			m.resolveControl(idx, e)
			if e.nextPC != e.predNextPC {
				m.recover(idx, e)
				return
			}
		}
	}
}

// resolveControl trains the predictor with the actual outcome.
func (m *Machine) resolveControl(idx int, e *robEntry) {
	in := e.inst
	if in.IsCondBranch() {
		taken := e.takenActual()
		correct := m.pred.Resolve(e.pc, e.predTaken, taken, e.ghrSnap)
		m.stats.BranchLookups++
		if correct {
			m.stats.BranchCorrect++
		}
		if taken {
			m.pred.UpdateTarget(e.pc, e.nextPC)
		}
		return
	}
	if in.Op == isa.Jr || in.Op == isa.Jalr {
		// Indirect jumps count against the prediction rate: their
		// target comes from the BTB and is frequently wrong for
		// interpreter-style dispatch.
		m.stats.BranchLookups++
		if e.nextPC == e.predNextPC {
			m.stats.BranchCorrect++
		}
		m.pred.UpdateTarget(e.pc, e.nextPC)
	}
}

// recover squashes everything younger than the mispredicted control
// instruction (squashAfter drops them from the slot sets), rebuilds the
// rename map and queue occupancy from the surviving entries, and
// redirects fetch with the misprediction penalty.
func (m *Machine) recover(idx int, e *robEntry) {
	if m.tracer != nil {
		past := false
		m.rob.forEach(func(j int, o *robEntry) bool {
			if past {
				m.tracer.Emit(o.seq, m.cycle, ptrace.KSquash, o.pc, o.inst, 0)
			}
			if j == idx {
				past = true
			}
			return true
		})
	}
	n := m.rob.squashAfter(idx)
	m.stats.Squashed += uint64(n)
	m.metrics.squashRecoveries.Inc()
	m.metrics.squashedInsts.Add(uint64(n))

	for r := range m.rename {
		m.rename[r] = -1
	}
	m.lsqCount = 0
	m.tlbMissOutstanding = 0
	m.rob.forEach(func(i int, o *robEntry) bool {
		for s := 0; s < o.ndest; s++ {
			if o.dests[s].reg != isa.Zero {
				m.rename[o.dests[s].reg] = int32(i)
				m.renameSlot[o.dests[s].reg] = int8(s)
			}
		}
		if o.inst != nil && o.inst.IsMem() {
			m.lsqCount++
		}
		if o.missCharged() {
			m.tlbMissOutstanding++
		}
		return true
	})

	m.flushFetchQ()
	m.haltPending = false
	m.fetchPC = e.nextPC
	stall := m.cycle + m.pred.MispredictPenalty() - 1
	if stall > m.fetchStallUntil {
		m.fetchStallUntil = stall
		m.fetchStallCause = stallRedirect
	}
}
