// Package sim implements a deterministic discrete-event simulation kernel.
//
// A Kernel owns a virtual clock and a set of cooperating processes. Each
// process runs in its own goroutine, but the kernel guarantees that at most
// one process executes at any instant: a process runs until it calls one of
// the blocking primitives (Sleep, WaitOn, WaitUntil, YieldProc), at which
// point control returns to the kernel's scheduler, which advances virtual
// time only when no process is runnable. Execution is therefore fully
// deterministic — the same program produces the same event trace and the
// same virtual-time results on every run — which is what allows the
// benchmark harness to report reproducible "paper figure" numbers.
//
// The design follows the classic cooperative process-based simulation
// style (SimPy, CSIM): a baton is passed between the scheduler and exactly
// one process goroutine at a time.
//
// A blocked process waits on a predicate registered under a Key, the
// name of the state the predicate reads. Whoever changes that state
// calls Signal on its key (or Poke on one process, for per-wait timers);
// after every process time slice and every batch of fired events the
// kernel re-evaluates only the waits signalled since the last check, in
// wait-registration order. A wait with a nil key is re-evaluated at every
// such check. As long as every change a predicate can observe signals its
// key, the keyed schedule is exactly the one re-evaluating every wait
// would produce, at a cost that does not grow with the number of blocked
// processes.
package sim

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"
)

// ErrDeadlock is wrapped by the error Run returns when no process is
// runnable and no event is pending. Callers that expect a benign drain
// (servers parked after the workload finished) test for it with
// errors.Is.
var ErrDeadlock = errors.New("deadlock")

// Kernel is a discrete-event scheduler with a virtual clock.
type Kernel struct {
	now      time.Duration
	events   eventHeap
	eventSeq uint64

	procs    []*Proc
	runnable []*Proc // FIFO run queue
	live     int     // processes started and not yet finished

	// Wait bookkeeping (see WaitOn). waitSeq numbers waits in
	// registration order; nilWaiters holds the nil-key waits in that
	// order; signaled and poked queue what the next recheck evaluates;
	// pass stamps each recheck so a process queued twice is evaluated
	// once; recheckBuf is the reused scratch list of one recheck.
	waitSeq    uint64
	nilWaiters []*Proc
	signaled   []*Key
	poked      []*Proc
	pass       uint64
	recheckBuf []*Proc

	baton chan *Proc // scheduler -> process hand-off rendezvous

	// shuffle, when non-nil, picks the next runnable process
	// pseudo-randomly instead of FIFO. Still fully deterministic for a
	// given seed: a cheap way to explore alternative interleavings.
	shuffle *rand.Rand

	// hazard enables the deliberately broken event-recycling scheme used
	// by the conformance harness's mutation self-test (see
	// SetEventPoolHazard). Hazard kernels never touch the shared event
	// pool, so their corruption cannot leak into healthy kernels.
	hazard      bool
	hazardStash *event // still-scheduled event queued for unsafe reuse
	hazardCount int

	failure error // first panic propagated out of a process
}

// New returns an empty kernel at virtual time zero.
func New() *Kernel {
	return &Kernel{baton: make(chan *Proc), events: make(eventHeap, 0, initialHeapCap)}
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// SetShuffle makes the scheduler pick among simultaneously runnable
// processes pseudo-randomly, seeded (and therefore reproducible), instead
// of strictly FIFO. Event times are unaffected — only the order in which
// equally-ready processes get the CPU changes. Call before Run.
func (k *Kernel) SetShuffle(seed int64) {
	k.shuffle = rand.New(rand.NewSource(seed))
}

// event is a scheduled callback. Events fire in (at, seq) order so that
// simultaneous events fire in scheduling order, keeping runs deterministic.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// initialHeapCap pre-sizes a kernel's event heap so steady-state
// scheduling never regrows the slice for typical cluster sizes.
const initialHeapCap = 128

// eventPool recycles event structs across kernels: the scheduling hot
// path allocates nothing once the pool is warm. Events are returned with
// fn cleared so the pool never pins a dead closure. The pop order of the
// heap is a strict total order on (at, seq), so pooling cannot perturb
// determinism.
var eventPool = sync.Pool{New: func() any { return new(event) }}

// eventHeap is a hand-rolled binary min-heap on (at, seq). It replaces
// container/heap so pushes and pops stay free of the interface{} boxing
// and indirect calls of the generic implementation — this is the hottest
// structure in the simulator.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e *event) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *eventHeap) pop() *event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = nil // release the reference so pooled events are not pinned
	s = s[:n]
	*h = s
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		next := i
		if l < n && s.less(l, next) {
			next = l
		}
		if r < n && s.less(r, next) {
			next = r
		}
		if next == i {
			break
		}
		s[i], s[next] = s[next], s[i]
		i = next
	}
	return top
}

func (h eventHeap) peek() *event { return h[0] }

// At schedules fn to run at absolute virtual time at (clamped to now).
// It may be called from process context or from another event callback.
func (k *Kernel) At(at time.Duration, fn func()) {
	if at < k.now {
		at = k.now
	}
	k.eventSeq++
	e := k.getEvent()
	e.at, e.seq, e.fn = at, k.eventSeq, fn
	k.events.push(e)
	if k.hazard {
		k.hazardCount++
		if k.hazardCount%hazardEvery == 0 {
			// BUG (deliberate): queue the event for reuse while it is
			// still sitting in the heap. The next At overwrites its
			// fields in place, losing this callback and double-firing
			// the new one.
			k.hazardStash = e
		}
	}
}

// getEvent takes an event struct for scheduling. Healthy kernels draw
// from the shared pool; hazard kernels deterministically reuse a
// still-scheduled event instead (and never touch the shared pool, so the
// corruption stays confined to this kernel).
func (k *Kernel) getEvent() *event {
	if k.hazard {
		if e := k.hazardStash; e != nil {
			k.hazardStash = nil
			return e
		}
		return new(event)
	}
	return eventPool.Get().(*event)
}

// putEvent returns a fired event to the pool. Hazard kernels skip the
// pool entirely: their heap can hold the same pointer twice, and a
// double-put would leak the corruption to other kernels in the process.
func (k *Kernel) putEvent(e *event) {
	if k.hazard {
		return
	}
	e.fn = nil
	eventPool.Put(e)
}

// hazardEvery is how often the hazard mode recycles a still-scheduled
// event: every third scheduled event, frequent enough that any non-empty
// heap is corrupted within a few message exchanges.
const hazardEvery = 3

// SetEventPoolHazard enables a deliberately broken event-recycling
// scheme: every hazardEvery-th scheduled event is recycled while still
// scheduled, so a later At clobbers its fire time and callback in place.
// It exists solely as a mutation hook for the conformance harness's
// oracle self-test (the bug class a correct event pool must not have);
// never enable it outside tests. Call before Run.
func (k *Kernel) SetEventPoolHazard(on bool) { k.hazard = on }

// After schedules fn to run d from now.
func (k *Kernel) After(d time.Duration, fn func()) { k.At(k.now+d, fn) }

// procState is the lifecycle of a process goroutine.
type procState int

const (
	stateNew procState = iota
	stateRunnable
	stateRunning
	stateBlocked
	stateDone
)

// Proc is a simulated process. All of its methods except Kernel-side
// bookkeeping must be called from the process's own goroutine while it
// holds the baton.
type Proc struct {
	k     *Kernel
	id    int
	name  string
	state procState
	fn    func(p *Proc)

	resume chan struct{} // scheduler tells the process to run
	wake   func()        // cached Sleep-timer callback (built once in Spawn)

	// The current wait (see WaitOn): its predicate, key, registration
	// number and index in key.waiters. poked marks the process as queued
	// in k.poked; pass is the last recheck that evaluated it.
	cond   func() bool
	key    *Key
	seq    uint64
	keyIdx int
	poked  bool
	pass   uint64

	wakeAt   time.Duration // diagnostic: time of pending timer, -1 if none
	blockTag string        // diagnostic: what the process is blocked on
}

// Spawn registers a new process executing fn. Processes are started when
// Run is called; fn receives its Proc handle.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		k:      k,
		id:     len(k.procs),
		name:   name,
		state:  stateNew,
		fn:     fn,
		resume: make(chan struct{}),
		wakeAt: -1,
	}
	// One wake closure per process, reused by every Sleep: a process can
	// have at most one pending timer, so sharing it is safe and keeps
	// the Sleep hot path allocation-free.
	p.wake = func() {
		p.wakeAt = -1
		k.markRunnable(p)
	}
	k.procs = append(k.procs, p)
	return p
}

// ID returns the process's kernel-assigned index.
func (p *Proc) ID() int { return p.id }

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.now }

// markRunnable appends p to the run queue if it is blocked or new.
func (k *Kernel) markRunnable(p *Proc) {
	if p.state == stateRunnable || p.state == stateRunning || p.state == stateDone {
		return
	}
	p.state = stateRunnable
	p.blockTag = ""
	k.runnable = append(k.runnable, p)
}

// Run starts every spawned process and drives the simulation until all
// processes finish, a deadline elapses (0 = none), or a deadlock occurs.
// It returns an error on deadlock, on deadline, or if a process panicked.
func (k *Kernel) Run(deadline time.Duration) error {
	for _, p := range k.procs {
		if p.state == stateNew {
			k.live++
			k.markRunnable(p)
			go k.procMain(p)
		}
	}
	for k.live > 0 {
		if k.failure != nil {
			return k.failure
		}
		if len(k.runnable) > 0 {
			i := 0
			if k.shuffle != nil {
				i = k.shuffle.Intn(len(k.runnable))
			}
			p := k.runnable[i]
			k.runnable = append(k.runnable[:i], k.runnable[i+1:]...)
			k.step(p)
			k.recheckConds()
			continue
		}
		if len(k.events) == 0 {
			return k.deadlockError()
		}
		next := k.events.peek().at
		if deadline > 0 && next > deadline {
			return fmt.Errorf("sim: deadline %v exceeded (next event at %v)", deadline, next)
		}
		k.now = next
		for len(k.events) > 0 && k.events.peek().at == k.now {
			e := k.events.pop()
			fn := e.fn
			k.putEvent(e)
			fn()
		}
		k.recheckConds()
	}
	return k.failure
}

// step hands the baton to p and waits for it to yield or finish.
func (k *Kernel) step(p *Proc) {
	p.state = stateRunning
	p.resume <- struct{}{}
	<-k.baton // p (or its completion path) hands the baton back
}

// Abort is a panic value a process may raise to terminate the whole
// simulation with a structured error: Run returns Err verbatim instead
// of wrapping it in a generic panic message, so callers can inspect it
// with errors.As.
type Abort struct{ Err error }

// Exit is a panic value a process may raise to terminate only itself,
// mid-body, without failing the simulation: the kernel treats it as a
// normal completion of that process. It models a fail-stop — the fabric
// raises it for an injected crash so the victim vanishes while every
// other process keeps running (and may recover, e.g. by lease repair).
type Exit struct{}

// procMain is the goroutine body wrapping a process function.
func (k *Kernel) procMain(p *Proc) {
	<-p.resume
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(Exit); !ok && k.failure == nil {
				if a, ok := r.(Abort); ok && a.Err != nil {
					k.failure = a.Err
				} else {
					k.failure = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
				}
			}
		}
		p.state = stateDone
		k.live--
		k.baton <- p
	}()
	p.fn(p)
}

// yield parks the calling process (whose state has already been set) and
// returns the baton to the scheduler. It returns when the scheduler
// resumes the process.
func (p *Proc) yield() {
	p.k.baton <- p
	<-p.resume
	p.state = stateRunning
}

// Sleep advances the process by d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d <= 0 {
		// Even a zero sleep is a scheduling point, giving other runnable
		// processes a chance to interleave deterministically.
		p.YieldProc()
		return
	}
	p.state = stateBlocked
	p.blockTag = "sleep"
	p.wakeAt = p.k.now + d
	p.k.After(d, p.wake)
	p.yield()
}

// YieldProc re-queues the process at the back of the run queue without
// advancing time, letting equally-runnable processes interleave.
func (p *Proc) YieldProc() {
	p.state = stateBlocked
	p.blockTag = "yield"
	p.k.markRunnable(p)
	p.yield()
}

// Key names a piece of state that wait predicates read — a mailbox, a
// memory space. The zero value is ready to use; a Key belongs to the
// kernel whose processes wait on it.
type Key struct {
	waiters  []*Proc // processes blocked on this key, in no particular order
	signaled bool    // queued in k.signaled for the next recheck
}

// Signal queues every process blocked on key for re-evaluation at the
// next recheck. Call it after changing state that waits on key read. It
// costs O(1); a key nobody waits on is left alone.
func (k *Kernel) Signal(key *Key) {
	if key.signaled || len(key.waiters) == 0 {
		return
	}
	key.signaled = true
	k.signaled = append(k.signaled, key)
}

// Poke queues p alone for re-evaluation at the next recheck, whatever
// key it waits on. Per-wait timers use it. Poking a process that is not
// blocked in a wait, or that is already queued, is a no-op, so a stale
// timer re-evaluates the process's next wait at most once and cannot wake
// it unless its predicate holds.
func (k *Kernel) Poke(p *Proc) {
	if p.poked || p.state != stateBlocked || p.cond == nil {
		return
	}
	p.poked = true
	k.poked = append(k.poked, p)
}

// WaitOn blocks the process until pred() reports true. pred is evaluated
// once on entry and afterwards only at a recheck that follows Signal(key)
// or Poke(p); a nil key re-evaluates it at every recheck (after every
// process time slice and every batch of fired events). So pred may read
// only state whose every change signals key, and it must not change state
// other waits read, except to consume what it waited for. Woken processes
// join the run queue in wait-registration order.
func (p *Proc) WaitOn(key *Key, tag string, pred func() bool) {
	if pred() {
		return
	}
	k := p.k
	p.state = stateBlocked
	p.blockTag = tag
	p.cond = pred
	p.key = key
	k.waitSeq++
	p.seq = k.waitSeq
	if key == nil {
		k.nilWaiters = append(k.nilWaiters, p)
	} else {
		p.keyIdx = len(key.waiters)
		key.waiters = append(key.waiters, p)
	}
	p.yield()
}

// WaitUntil is WaitOn with a nil key: pred is re-evaluated after every
// process time slice and every batch of fired events, so it may read any
// state.
func (p *Proc) WaitUntil(tag string, pred func() bool) { p.WaitOn(nil, tag, pred) }

// endWait unregisters p's satisfied wait. The order of key.waiters does
// not matter (rechecks sort by registration number), so it swap-removes.
func (k *Kernel) endWait(p *Proc) {
	if key := p.key; key != nil {
		last := len(key.waiters) - 1
		moved := key.waiters[last]
		key.waiters[p.keyIdx] = moved
		moved.keyIdx = p.keyIdx
		key.waiters[last] = nil
		key.waiters = key.waiters[:last]
	} else {
		for i, w := range k.nilWaiters {
			if w == p {
				last := len(k.nilWaiters) - 1
				copy(k.nilWaiters[i:], k.nilWaiters[i+1:])
				k.nilWaiters[last] = nil
				k.nilWaiters = k.nilWaiters[:last]
				break
			}
		}
	}
	p.cond, p.key = nil, nil
}

// recheckConds evaluates the waits queued since the last recheck — the
// waiters of every signalled key, every poked process and every nil-key
// waiter — and wakes those whose predicate holds, in wait-registration
// order. A signal raised while the queued waits are being evaluated is
// left for the next recheck.
func (k *Kernel) recheckConds() {
	if len(k.signaled) == 0 && len(k.poked) == 0 && len(k.nilWaiters) == 0 {
		return
	}
	k.pass++
	for _, key := range k.signaled {
		key.signaled = false
		for _, p := range key.waiters {
			k.queueRecheck(p)
		}
	}
	k.signaled = k.signaled[:0]
	for _, p := range k.poked {
		p.poked = false
		if p.state == stateBlocked && p.cond != nil {
			k.queueRecheck(p)
		}
	}
	k.poked = k.poked[:0]
	for _, p := range k.nilWaiters {
		k.queueRecheck(p)
	}
	buf := k.recheckBuf
	slices.SortFunc(buf, func(a, b *Proc) int { return cmp.Compare(a.seq, b.seq) })
	for _, p := range buf {
		if p.cond() {
			k.endWait(p)
			k.markRunnable(p)
		}
	}
	k.recheckBuf = buf[:0]
}

// queueRecheck adds p to the current recheck's list once.
func (k *Kernel) queueRecheck(p *Proc) {
	if p.pass != k.pass {
		p.pass = k.pass
		k.recheckBuf = append(k.recheckBuf, p)
	}
}

// deadlockError reports every blocked process and what it was waiting for.
func (k *Kernel) deadlockError() error {
	var stuck []string
	for _, p := range k.procs {
		if p.state == stateBlocked || p.state == stateRunnable {
			stuck = append(stuck, fmt.Sprintf("%s(%s)", p.name, p.blockTag))
		}
	}
	sort.Strings(stuck)
	return fmt.Errorf("sim: %w at %v with %d live processes: %v", ErrDeadlock, k.now, k.live, stuck)
}
