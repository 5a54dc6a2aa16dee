package cpu

import (
	"fmt"
	"math/bits"
	"testing"
	"testing/quick"

	"hbat/internal/prog"
	"hbat/internal/workload"
)

func TestROBRingBasics(t *testing.T) {
	r := newROB(4)
	if !r.empty() || r.full() {
		t.Fatal("fresh ROB state wrong")
	}
	idxs := make([]int, 0, 4)
	for i := 0; i < 4; i++ {
		idx := r.push()
		r.at(idx).seq = int64(i)
		idxs = append(idxs, idx)
	}
	if !r.full() {
		t.Fatal("ROB should be full")
	}
	if r.headEntry().seq != 0 {
		t.Fatal("head is not the oldest")
	}
	r.pop()
	if r.full() || r.headEntry().seq != 1 {
		t.Fatal("pop did not advance")
	}
	// Wrap-around.
	idx := r.push()
	r.at(idx).seq = 4
	seqs := []int64{}
	r.forEach(func(_ int, e *robEntry) bool {
		seqs = append(seqs, e.seq)
		return true
	})
	want := []int64{1, 2, 3, 4}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("forEach order %v, want %v", seqs, want)
		}
	}
	if r.pos(idxs[1]) >= r.pos(idx) {
		t.Fatal("age positions wrong across wrap")
	}
}

// TestNewRejectsROBBeyondSlotSets: each slot set is one 64-bit word,
// so a machine refuses a ROB it could not index.
func TestNewRejectsROBBeyondSlotSets(t *testing.T) {
	p := buildSumProgram(t, 10, prog.Budget32)
	for _, size := range []int{0, MaxROBSize + 1} {
		cfg := DefaultConfig()
		cfg.ROBSize = size
		if _, err := NewWithDesign(p, cfg, "T4"); err == nil {
			t.Errorf("ROBSize %d accepted", size)
		}
	}
}

// TestROBSlotSetsWrapAndSquash walks slot sets oldest first while the
// live ring wraps past the last slot, then squashes from the middle of
// the ring and refills the freed slots.
func TestROBSlotSetsWrapAndSquash(t *testing.T) {
	r := newROB(8)
	seq := int64(0)
	push := func(state uint8, store bool) int {
		idx := r.push()
		e := r.at(idx)
		e.seq, e.isStore = seq, store
		seq++
		r.setState(idx, state)
		return idx
	}
	walk := func(k int) (slots []int) {
		for ages := r.ages(k); ages != 0; ages &= ages - 1 {
			slots = append(slots, r.slotAt(bits.TrailingZeros64(ages)))
		}
		return slots
	}
	for i := 0; i < 5; i++ {
		push(sDone, false)
		r.pop()
	}
	// Head at slot 5; the eight live entries occupy slots 5,6,7,0,...,4.
	states := []uint8{sWaiting, sExecuting, sWaiting, sMemReq, sWaiting, sStoreData, sWaiting, sExecuting}
	for i, st := range states {
		push(st, i == 0 || i == 5)
	}
	if err := r.checkSlotSets(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(walk(setWaiting)), "[5 7 1 3]"; got != want {
		t.Fatalf("waiting walk %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(walk(setExec)), "[6 4]"; got != want {
		t.Fatalf("executing walk %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(walk(setStoreNoAddr), walk(setStoreAddr)), "[5] [2]"; got != want {
		t.Fatalf("store walks %s, want %s", got, want)
	}
	if older := r.ages(setWaiting) & r.olderMask(1); older != 0b101 {
		t.Fatalf("waiting entries older than slot 1: %#b, want 0b101", older)
	}

	// Squash everything younger than slot 0, the fourth oldest.
	if n := r.squashAfter(0); n != 4 {
		t.Fatalf("squashed %d, want 4", n)
	}
	if err := r.checkSlotSets(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(walk(setWaiting), walk(setStoreAddr)), "[5 7] []"; got != want {
		t.Fatalf("walks after squash %s, want %s", got, want)
	}
	// The freed slots refill in age order behind the survivors.
	push(sWaiting, true)
	push(sExecuting, false)
	r.setState(5, sMemReq)
	if err := r.checkSlotSets(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(walk(setWaiting), walk(setStoreAddr), walk(setStoreNoAddr)), "[7 1] [5] [1]"; got != want {
		t.Fatalf("walks after refill %s, want %s", got, want)
	}
}

func TestROBSquashAfter(t *testing.T) {
	r := newROB(8)
	var idxs []int
	for i := 0; i < 6; i++ {
		idx := r.push()
		r.at(idx).seq = int64(i)
		idxs = append(idxs, idx)
	}
	n := r.squashAfter(idxs[2])
	if n != 3 {
		t.Fatalf("squashed %d, want 3", n)
	}
	if r.count != 3 {
		t.Fatalf("count %d, want 3", r.count)
	}
	last := int64(-1)
	r.forEach(func(_ int, e *robEntry) bool {
		last = e.seq
		return true
	})
	if last != 2 {
		t.Fatalf("youngest surviving seq %d, want 2", last)
	}
	for _, i := range idxs[3:] {
		if r.at(i).valid {
			t.Fatal("squashed entry still valid")
		}
	}
}

// Property: any push/pop/squash/state-change sequence keeps the ring
// consistent: count matches the number of valid entries seen by
// forEach, in strictly increasing seq order, and every slot set matches
// its entries.
func TestROBConsistencyProperty(t *testing.T) {
	check := func(ops []uint8) bool {
		r := newROB(8)
		seq := int64(0)
		for _, op := range ops {
			switch op % 4 {
			case 0:
				if !r.full() {
					idx := r.push()
					r.at(idx).seq = seq
					r.at(idx).isStore = op&0x10 != 0
					r.setState(idx, sWaiting)
					seq++
				}
			case 1:
				if !r.empty() {
					r.pop()
				}
			case 2:
				if r.count > 1 {
					// Squash after an entry in the middle of the ring.
					r.squashAfter(r.slotAt(int(op>>2) % r.count))
				}
			case 3:
				if !r.empty() {
					// Move an entry forward; no state returns to sWaiting.
					idx := r.slotAt(int(op>>5) % r.count)
					if st := sExecuting + op>>2%5; st > r.at(idx).state {
						r.setState(idx, st)
					}
				}
			}
			if err := r.checkSlotSets(); err != nil {
				t.Log(err)
				return false
			}
			// Invariants.
			n := 0
			last := int64(-1)
			okOrder := true
			r.forEach(func(_ int, e *robEntry) bool {
				if !e.valid || e.seq <= last {
					okOrder = false
				}
				last = e.seq
				n++
				return true
			})
			if n != r.count || !okOrder {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFetchQueueRing(t *testing.T) {
	m := &Machine{fetchQ: make([]fetchedInst, 0, 4)}
	m.cfg.FetchQueue = 4
	for i := 0; i < 3; i++ {
		m.pushFetched(fetchedInst{pc: uint64(i)})
	}
	if m.fetchQLen() != 3 {
		t.Fatalf("len %d", m.fetchQLen())
	}
	if m.peekFetched().pc != 0 {
		t.Fatal("peek wrong")
	}
	if m.popFetched().pc != 0 || m.popFetched().pc != 1 {
		t.Fatal("pop order wrong")
	}
	m.pushFetched(fetchedInst{pc: 9}) // triggers compaction path
	if m.fetchQLen() != 2 || m.peekFetched().pc != 2 {
		t.Fatal("state after compaction wrong")
	}
	m.flushFetchQ()
	if m.fetchQLen() != 0 || m.peekFetched() != nil {
		t.Fatal("flush wrong")
	}
}

// TestDeterminism: identical configurations produce identical cycle
// counts and statistics (required for reproducible experiments).
func TestDeterminism(t *testing.T) {
	p := buildSumProgram(t, 200, prog.Budget32)
	var cycles [2]int64
	var walks [2]uint64
	for i := range cycles {
		m, err := NewWithDesign(p, DefaultConfig(), "M8")
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		cycles[i] = m.Stats().Cycles
		walks[i] = m.Stats().TLBWalks
	}
	if cycles[0] != cycles[1] || walks[0] != walks[1] {
		t.Fatalf("nondeterministic: %v %v", cycles, walks)
	}
}

// wantSets recomputes slot-set membership from the entries
// themselves, independently of setState's bookkeeping.
func wantSets(e *robEntry) [numSlotSets]bool {
	var in [numSlotSets]bool
	switch e.state {
	case sWaiting:
		in[setWaiting] = true
	case sExecuting:
		in[setExec] = true
	case sMemReq, sMemWalk, sStoreData:
		in[setMem] = true
	}
	if e.isStore {
		in[setStoreNoAddr] = e.state == sWaiting
		in[setStoreAddr] = e.state != sWaiting
	}
	return in
}

// checkSlotSets verifies every slot set against a full ROB scan: each
// live entry is in exactly the sets its state and kind call for, no
// free slot is in any set, and each set iterates oldest to youngest.
func (r *rob) checkSlotSets() error {
	live := make([]bool, len(r.entries))
	r.forEach(func(idx int, e *robEntry) bool {
		live[idx] = true
		return true
	})
	for idx := range r.entries {
		var want [numSlotSets]bool
		if live[idx] {
			want = wantSets(&r.entries[idx])
		}
		for k := 0; k < numSlotSets; k++ {
			got := r.sets[k]&(1<<uint(idx)) != 0
			if got != want[k] {
				return fmt.Errorf("slot %d (live=%v state=%d store=%v): in set %d = %v, want %v",
					idx, live[idx], r.entries[idx].state, r.entries[idx].isStore, k, got, want[k])
			}
		}
	}
	for k := 0; k < numSlotSets; k++ {
		last := int64(-1)
		for ages := r.ages(k); ages != 0; ages &= ages - 1 {
			idx := r.slotAt(bits.TrailingZeros64(ages))
			seq := r.entries[idx].seq
			if seq <= last {
				return fmt.Errorf("set %d visits seq %d after %d", k, seq, last)
			}
			last = seq
		}
	}
	return nil
}

// checkIssueWakeup verifies issue's wakeup bookkeeping against the
// entries: every waiting entry issue will not poll has an issue operand
// that is not ready and a pending wakeup, in a wheel slot or in a live
// entry's waiters.
func (m *Machine) checkIssueWakeup() error {
	var pending uint64
	for _, w := range m.issueWheel {
		pending |= w
	}
	m.rob.forEach(func(_ int, e *robEntry) bool {
		pending |= e.waiters
		return true
	})
	var err error
	m.rob.forEach(func(idx int, e *robEntry) bool {
		bit := uint64(1) << uint(idx)
		if e.state != sWaiting || m.issuePoll&bit != 0 {
			return true
		}
		if pending&bit == 0 {
			err = fmt.Errorf("parked slot %d (seq %d) has no wakeup pending", idx, e.seq)
			return false
		}
		first := 0
		if e.isStore {
			first = 1
		}
		for i := first; i < e.nsrc; i++ {
			op := &e.srcs[i]
			if op.producer < 0 {
				continue
			}
			if p := m.rob.at(int(op.producer)); p.valid && p.seq == op.seq && p.dests[op.slot].readyAt > m.cycle {
				return true
			}
		}
		err = fmt.Errorf("parked slot %d (seq %d) has its issue operands ready", idx, e.seq)
		return false
	})
	return err
}

// TestStateCountersStayConsistent drives a branchy, memory-heavy workload
// tick by tick, out of order and in order, and checks every slot set and
// issue's wakeup bookkeeping against a full ROB scan after every cycle.
func TestStateCountersStayConsistent(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Build(prog.Budget32, workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	for _, inOrder := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.InOrder = inOrder
		m, err := NewWithDesign(p, cfg, "M4")
		if err != nil {
			t.Fatal(err)
		}
		for !m.halted && m.err == nil && m.cycle < 30000 {
			m.tick()
			if err := m.rob.checkSlotSets(); err != nil {
				t.Fatalf("inorder=%v cycle %d: %v", inOrder, m.cycle, err)
			}
			if err := m.checkIssueWakeup(); err != nil {
				t.Fatalf("inorder=%v cycle %d: %v", inOrder, m.cycle, err)
			}
		}
		if m.err != nil {
			t.Fatal(m.err)
		}
	}
}
