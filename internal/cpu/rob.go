package cpu

import "hbat/internal/isa"

// entry states.
const (
	sWaiting   uint8 = iota // in ROB, not yet issued
	sExecuting              // on a functional unit; result at doneAt
	sMemReq                 // memory op: address generated, needs TLB+cache
	sMemWalk                // memory op: TLB miss detected, awaiting walk
	sStoreData              // store: translated, waiting for its data value
	sDone                   // complete; eligible to commit
)

// dest is one destination register write carried by a ROB entry.
// Post-update memory operations have two (value and new base), with
// independent ready times: the base update is ready at address
// generation, the load value when memory responds.
type dest struct {
	reg     isa.Reg
	val     uint64
	readyAt int64
}

// operand identifies where a source value comes from: the architected
// register file (producer < 0, val already read) or a ROB producer's
// destination slot.
type operand struct {
	reg      isa.Reg
	producer int32 // ROB slot index, -1 = register file
	slot     int8  // producer's destination slot
	seq      int64 // producer's sequence number (slot-recycling guard)
	val      uint64
}

// robEntry is one in-flight instruction.
type robEntry struct {
	valid bool
	seq   int64
	pc    uint64
	inst  *isa.Inst
	state uint8

	doneAt int64

	srcs [3]operand
	nsrc int

	dests [2]dest
	ndest int

	// waiters holds the slots of waiting entries parked until one of
	// this entry's results is scheduled (Machine.park).
	waiters uint64

	// Control.
	isCtrl     bool
	predNextPC uint64
	nextPC     uint64 // actual (set at execute)
	predTaken  bool
	ghrSnap    uint64
	resolved   bool

	flags uint8

	// Memory.
	isLoad   bool
	isStore  bool
	effAddr  uint64 // generated when the entry leaves sWaiting
	paddr    uint64
	memWidth int
	storeVal uint64
	memReqAt int64 // first cycle the TLB/cache request may be made
	walkDone int64 // cycle the page-table walk completes (sMemWalk)
	walking  bool
}

// robEntry flag bits.
const (
	fTaken       uint8 = 1 << iota // conditional branch actually taken
	fMissCharged                   // counted in tlbMissOutstanding
	fFaulted                       // protection fault (fatal if committed)
)

func (e *robEntry) actualTaken(t bool) {
	if t {
		e.flags |= fTaken
	} else {
		e.flags &^= fTaken
	}
}
func (e *robEntry) takenActual() bool { return e.flags&fTaken != 0 }
func (e *robEntry) setMissCharged()   { e.flags |= fMissCharged }
func (e *robEntry) missCharged() bool { return e.flags&fMissCharged != 0 }
func (e *robEntry) setFaulted()       { e.flags |= fFaulted }
func (e *robEntry) faulted() bool     { return e.flags&fFaulted != 0 }

// Slot sets: the ROB keeps one bitset over its slots for each group of
// live entries a pipeline stage consumes, so a stage visits only its
// own entries instead of scanning the whole ring. Membership is a pure
// function of an entry's state and kind, kept exact by setState.
const (
	setWaiting     = iota // sWaiting: issue candidates
	setExec               // sExecuting: completion candidates
	setMem                // sMemReq, sMemWalk, sStoreData: the memory pipeline
	setStoreNoAddr        // stores in sWaiting: address not yet generated
	setStoreAddr          // stores past sWaiting: address known to the LSQ
	numSlotSets
)

// stateSet maps an entry state to the slot set it puts the entry in
// (numSlotSets for none).
var stateSet = [...]uint8{
	sWaiting:   setWaiting,
	sExecuting: setExec,
	sMemReq:    setMem,
	sMemWalk:   setMem,
	sStoreData: setMem,
	sDone:      numSlotSets,
}

// MaxROBSize is the largest re-order buffer the machine models: each
// slot set is one 64-bit word.
const MaxROBSize = 64

// rob is a ring buffer of in-flight instructions in program order.
type rob struct {
	entries []robEntry
	head    int // oldest
	count   int
	posMask uint64 // one bit per ROB slot

	// sets[k] has bit idx set when slot idx is in slot set k.
	sets [numSlotSets]uint64
}

func newROB(size int) *rob {
	return &rob{entries: make([]robEntry, size), posMask: ^uint64(0) >> uint(64-size)}
}

func (r *rob) full() bool  { return r.count == len(r.entries) }
func (r *rob) empty() bool { return r.count == 0 }

// wrap maps a slot index in [0, 2*len) back into the ring.
func (r *rob) wrap(i int) int {
	if i >= len(r.entries) {
		i -= len(r.entries)
	}
	return i
}

// push allocates the next entry and returns its slot index. The entry
// joins its slot sets at its first setState. Only the fields dispatch
// may leave unwritten are reset: srcs and dests are read only below
// nsrc and ndest, and every other field is written before it is read.
func (r *rob) push() int {
	idx := r.wrap(r.head + r.count)
	r.count++
	e := &r.entries[idx]
	e.valid = true
	e.doneAt = 0
	e.nsrc, e.ndest = 0, 0
	e.isCtrl, e.isLoad, e.isStore = false, false, false
	e.resolved, e.walking = false, false
	e.flags = 0
	e.effAddr = 0
	e.waiters = 0
	return idx
}

// pop retires the head entry.
func (r *rob) pop() {
	r.release(r.head)
	r.head = r.wrap(r.head + 1)
	r.count--
}

// release invalidates slot idx and drops it from every slot set.
func (r *rob) release(idx int) {
	r.entries[idx].valid = false
	for k := range r.sets {
		r.sets[k] &^= 1 << uint(idx)
	}
}

// setState moves the entry at slot idx to state s. Every state change
// goes through here, which keeps the slot sets exact: an entry is in
// the set stateSet names for its state, and a store is in
// setStoreNoAddr while it waits and in setStoreAddr from its issue on.
// A freshly pushed entry is in no set, so clearing its old state's bit
// is harmless.
func (r *rob) setState(idx int, s uint8) {
	e := &r.entries[idx]
	bit := uint64(1) << uint(idx)
	if k := stateSet[e.state]; k < numSlotSets {
		r.sets[k] &^= bit
	}
	if k := stateSet[s]; k < numSlotSets {
		r.sets[k] |= bit
	}
	if e.isStore {
		if s == sWaiting {
			r.sets[setStoreNoAddr] |= bit
		} else {
			r.sets[setStoreNoAddr] &^= bit
			r.sets[setStoreAddr] |= bit
		}
	}
	e.state = s
}

// ages returns slot set k by age: bit p is set when the entry p places
// behind the head is in the set. Stages walk it lowest bit first (oldest
// first) and map each bit back with slotAt. The mask is a snapshot, so a
// walk must not move any entry but the one it is visiting out of the
// set; no stage does.
func (r *rob) ages(k int) uint64 {
	s, h := r.sets[k], uint(r.head)
	return (s>>h | s<<(uint(len(r.entries))-h)) & r.posMask
}

// slotAt returns the slot of the entry p places behind the head.
func (r *rob) slotAt(p int) int { return r.wrap(r.head + p) }

// olderMask returns the age mask of every entry older than slot idx.
func (r *rob) olderMask(idx int) uint64 { return 1<<uint(r.pos(idx)) - 1 }

// at returns the entry at slot idx.
func (r *rob) at(idx int) *robEntry { return &r.entries[idx] }

// headEntry returns the oldest entry (nil when empty).
func (r *rob) headEntry() *robEntry {
	if r.count == 0 {
		return nil
	}
	return &r.entries[r.head]
}

// forEach visits every entry oldest to youngest; the visitor returns
// false to stop early. Per-cycle stages walk their slot sets instead;
// this serves misprediction recovery, which rebuilds the rename map
// from all survivors.
func (r *rob) forEach(f func(idx int, e *robEntry) bool) {
	for i := 0; i < r.count; i++ {
		idx := r.wrap(r.head + i)
		if !f(idx, &r.entries[idx]) {
			return
		}
	}
}

// squashAfter invalidates every entry younger than slot keepIdx and
// returns how many were squashed.
func (r *rob) squashAfter(keepIdx int) int {
	pos := r.pos(keepIdx)
	squashed := r.count - pos - 1
	for i := pos + 1; i < r.count; i++ {
		r.release(r.wrap(r.head + i))
	}
	r.count = pos + 1
	return squashed
}

// pos returns slot idx's age position: 0 for the head.
func (r *rob) pos(idx int) int {
	if idx < r.head {
		return idx - r.head + len(r.entries)
	}
	return idx - r.head
}
