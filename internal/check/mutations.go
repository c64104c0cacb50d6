package check

import (
	"fmt"
	"time"

	"armci"
	"armci/internal/collective"
	"armci/internal/msg"
	"armci/internal/proc"
	"armci/internal/shmem"
	"armci/internal/trace"
	"armci/internal/workload"
)

// Mutation self-test: deliberately broken variants of the algorithms
// under test. Each reintroduces a bug class the oracles exist to catch —
// a release that races its late-linking successor, an off-by-one ticket
// gate, a barrier whose fence stage is skipped — and the harness proves
// itself by detecting every one of them under a seed sweep. The variants
// are implemented here, against the public Proc surface, rather than in
// internal/core: production code carries no test-only broken paths.

// Mutation names.
const (
	// MutQueueSkipLinkWait: an MCS release that skips the wait for a
	// late-linking successor — when the compare&swap fails (a requester
	// swapped in but has not linked yet) it reads the next pointer once
	// and gives up, orphaning the successor, which spins forever.
	// Detected as a liveness violation (deadlock). The swap→link window
	// is narrower than the calibrated network's round trip, so the
	// mutation's sweep runs under a latency-spike fault plan that can
	// delay the successor's link store past the releaser's re-read —
	// the preemption a real machine provides for free.
	MutQueueSkipLinkWait = "queue-skip-link-wait"
	// MutTicketOffByOne: a ticket lock whose wait admits ticket t when
	// the counter reads t-1, so the next waiter enters while the current
	// holder is still inside. Detected by the mutual-exclusion oracle.
	MutTicketOffByOne = "ticket-off-by-one"
	// MutBarrierSkipStage2: a combined barrier that distributes op_init
	// (stage i) and synchronizes (stage iii) but skips waiting for the
	// local server's op_done to catch up (stage ii). Outstanding puts
	// escape the fence. On the calibrated network every put lands well
	// inside the all-reduce, so the sweep runs under a latency-spike
	// plan that keeps some puts in flight past the broken exit.
	// Detected by the fence oracle (and the state-level read-back).
	MutBarrierSkipStage2 = "barrier-skip-stage2"
	// MutSyncOldSkipFence: a GA_Sync that performs only the MPI barrier,
	// skipping AllFence entirely. Detected by the fence oracle.
	MutSyncOldSkipFence = "sync-old-skip-fence"
	// MutEventPoolRecycle: the algorithms are untouched — the bug is in
	// the harness substrate itself. The simulated kernel's event pool
	// recycles an event that is still sitting in the pending heap
	// (sim.Kernel.SetEventPoolHazard), so its callback is overwritten and
	// the original firing is lost or replayed. Lost wakeups strand
	// waiters; detected as a liveness violation (deadlock/deadline) or,
	// when a delivery callback is the casualty, by the delivery/state
	// oracles. Proves the oracles catch pooling-induced corruption, not
	// just protocol bugs.
	MutEventPoolRecycle = "event-pool-recycle"
	// MutLostWakeup: the algorithms are untouched — the simulated
	// fabric's delivery path skips the mailbox Signal on every 8th
	// delivery (transport.SetWakeLossHazard), so the
	// message is queued but its receiver is never re-checked and sleeps
	// until some later delivery to the same mailbox. A lost wake-up is
	// the one bug class keyed waits introduce; a receiver whose last
	// message is swallowed strands the run, detected as a liveness
	// violation (deadlock). Proves the oracles catch a kernel wake-up
	// bug, not just protocol bugs.
	MutLostWakeup = "lost-wakeup"
	// MutCoalesceReorder: the coalescer flushes each batch with its
	// entries reversed (pipeline.CoalesceOpts.ReorderHazard), so a
	// notify flag coalesced behind its data chunks is applied first and
	// the consumer's spin wakes while the chunks are still landing.
	// Detected by the state oracle: the notify/wait phase reads a stale
	// chunk byte-for-byte. Proves batching preserves within-batch order,
	// not just per-pair frame order.
	MutCoalesceReorder = "coalescer-reorder"
	// MutLeaseStaleRelease: a lease lock whose release skips the epoch
	// compare&swap — it frees the lock unconditionally instead of
	// presenting its epoch, so a holder that a repair deposed while it
	// was slow still gives the lock away underneath the repair's
	// beneficiary. The case runs a crashheld plan (arming recovery) with
	// a TTL far below the critical-section time, so live holders are
	// routinely deposed and their broken releases hand the lock to a
	// second rank mid-tenure. Detected by the modulo-lease
	// mutual-exclusion oracle: a deposed rank's ordinary release, an
	// epoch granted twice, or an acquire while a never-deposed rank
	// holds.
	MutLeaseStaleRelease = "lease-stale-release"
	// MutAccLostUpdate: the parameter-server workload's atomic
	// Accumulate replaced by a non-atomic Get/Put read-modify-write
	// (workload.Hazards.AccLostUpdate). With every rank hammering the
	// same hot cells, two ranks routinely interleave their read and
	// write and one of the updates vanishes — the classic lost update no
	// trace-level oracle can see, because every individual message is
	// delivered exactly once and fenced correctly. Only the workload's
	// accumulate-sum exactness oracle (state) catches it.
	MutAccLostUpdate = "acc-lost-update"
	// MutFlagBeforeData: the producer-consumer workload's PutFlag
	// replaced by a plain word store of the flag issued before the data
	// chunks (workload.Hazards.FlagBeforeData). The store rides the
	// control pipe while the puts ride the server pipe, so the flag
	// overtakes its data and the consumer's WaitFlag wakes over a stale
	// buffer. Per-pair delivery and fence oracles stay green — nothing
	// was lost or reordered within a pipe; only the workload's
	// no-stale-read byte verification (state) catches it. The case runs
	// one rank per node so every hop crosses the wire.
	MutFlagBeforeData = "flag-before-data"
	// MutKnomialSkipSubtree: a combined barrier whose stage-iii k-nomial
	// exchange releases early — the parent skips receiving its last
	// child's subtree report but still sends every release, so the
	// ranks outside that subtree exit while the skipped subtree may
	// still be in stage ii waiting for its node's op_done. Stages i and
	// ii are correct, so a rank's own node is always fenced; the bug is
	// only visible when a spike-delayed put TO the skipped subtree's
	// node is still in flight as the root exits. The sweep's spike plan
	// is large-and-rare (5ms at 5%) rather than the barrier mutations'
	// 1ms at 20%: frequent spikes also stagger the ranks' barrier
	// entries by more than the spike itself, closing the window — the
	// delayed put must outlive the whole exchange, not just one stage.
	// Detected by the fence oracle (a pre-entry operation completing
	// after some rank's exit).
	MutKnomialSkipSubtree = "knomial-skip-subtree"
	// MutReplStaleEpoch: an elastic-replication recovery in which the
	// survivors skip the rollback to the cluster resume epoch — state
	// from the aborted epoch (a deposed view of the computation, the
	// in-memory analogue of applying a deposed incarnation's frame)
	// survives into the re-execution, so the non-idempotent fetch-adds
	// of the interrupted epoch apply twice. Detected by the state
	// oracle: the post-recovery cluster fingerprint diverges from the
	// pure-replay oracle every correct run must converge to. The byte
	// puts are idempotent and would mask the bug; only the fetch-add
	// half of the workload exposes it.
	MutReplStaleEpoch = "repl-stale-epoch"
	// MutPanicCase: not an algorithm bug — the workload panics outright
	// mid-case, simulating a harness defect. It exists to test that the
	// sweep runner recovers per case, attributes the panic to its
	// reproducer tuple, and exits non-zero instead of reporting a clean
	// sweep. Excluded from Mutations(): DetectMutation proves oracles,
	// not the runner.
	MutPanicCase = "panic-case"
)

// mutationSpec describes one broken variant: which real algorithm the
// base case names (for the reproducer), plus the broken factory for the
// component it replaces.
type mutationSpec struct {
	alg    string
	sync   string
	faults string // fault plan that widens the bug's race window
	lock   func(p *armci.Proc) armci.Mutex
	syncFn func(p *armci.Proc, epoch *int) func()
	// wakeLoss arms the simulated fabric's lost-wake-up hazard: one
	// delivery Signal in wakeLoss is swallowed (see MutLostWakeup).
	wakeLoss int
	// simHazard arms the simulated kernel's event-pool bug instead of
	// mutating an algorithm.
	simHazard bool
	// coalesceHazard runs the case with coalescing enabled and the
	// coalescer's within-batch reorder bug armed.
	coalesceHazard bool
	// harnessPanic makes RunCase panic mid-case (runner-recovery test).
	harnessPanic bool
	// leaseTTL overrides the lease TTL of the case (lease mutations use
	// a TTL below the critical-section time to force live deposals).
	leaseTTL time.Duration
	// csDelay stretches every critical section of the crash workload by
	// a virtual-time sleep, so a tenure reliably outlives the lease TTL
	// and waiters depose live holders mid-section.
	csDelay time.Duration
	// workload names the internal/workload spec the hazard lives in;
	// hazards are consulted only by named workload bodies.
	workload string
	hazards  workload.Hazards
	// ppn overrides the case's processes per node (0 = default).
	ppn int
	// elastic runs the elastic-replication recovery workload with the
	// skip-rollback hazard armed (the crash itself comes from the
	// case's crashrank fault plan).
	elastic bool
}

var mutationSpecs = map[string]mutationSpec{
	MutQueueSkipLinkWait: {alg: "queue", sync: "barrier", faults: "spike=1ms@0.2",
		lock: func(p *armci.Proc) armci.Mutex { return &brokenQueueLock{p: p, idx: 0} }},
	MutTicketOffByOne: {alg: "ticket", sync: "barrier",
		lock: func(p *armci.Proc) armci.Mutex { return &brokenTicket{p: p, idx: 0} }},
	MutBarrierSkipStage2: {alg: "queue", sync: "barrier", faults: "spike=1ms@0.2", syncFn: brokenBarrier},
	MutSyncOldSkipFence:  {alg: "queue", sync: "sync-old", syncFn: brokenSyncOld},
	MutEventPoolRecycle:  {alg: "queue", sync: "barrier", simHazard: true},
	MutLostWakeup:        {alg: "queue", sync: "barrier", wakeLoss: 8},
	MutCoalesceReorder:   {sync: "barrier", coalesceHazard: true},
	MutLeaseStaleRelease: {alg: "lease", sync: "barrier", faults: "crashheld=1@1",
		leaseTTL: 10 * time.Microsecond, csDelay: 300 * time.Microsecond,
		lock: func(p *armci.Proc) armci.Mutex { return &brokenLeaseLock{p: p, idx: 0, ttl: 10 * time.Microsecond} }},
	MutAccLostUpdate: {workload: "paramserver", sync: "barrier",
		hazards: workload.Hazards{AccLostUpdate: true}},
	MutFlagBeforeData: {workload: "prodcons", sync: "barrier", ppn: 1,
		hazards: workload.Hazards{FlagBeforeData: true}},
	MutKnomialSkipSubtree: {alg: "queue", sync: "barrier-knomial", faults: "spike=5ms@0.05",
		syncFn: brokenKnomialBarrier},
	MutReplStaleEpoch: {sync: "barrier", faults: "crashrank=1@2", elastic: true},
	MutPanicCase:      {alg: "queue", sync: "barrier", harnessPanic: true},
}

// Mutations returns the broken variant names, in a fixed order.
func Mutations() []string {
	return []string{MutQueueSkipLinkWait, MutTicketOffByOne, MutBarrierSkipStage2,
		MutSyncOldSkipFence, MutEventPoolRecycle, MutLostWakeup, MutCoalesceReorder,
		MutLeaseStaleRelease, MutAccLostUpdate, MutFlagBeforeData,
		MutKnomialSkipSubtree, MutReplStaleEpoch}
}

// MutationWorkload reports the workload spec a mutation targets (""
// for lock/sync/harness mutations) and its processes-per-node override
// (0 = none), so sweep drivers can default their case shape to the
// mutation's own scenario the same way MutationCase does.
func MutationWorkload(name string) (workloadSpec string, ppn int) {
	m := mutationSpecs[name]
	return m.workload, m.ppn
}

// MutationIters is the per-rank critical-section count the mutation
// self-test sweeps at — deeper than the default case so narrow race
// windows get more chances per seed. Reproducer replays must use the
// same count (cmd/armci-check defaults -iters from it under -mutation).
const MutationIters = 6

// MutationCase builds the sweep template of one mutation at one seed.
func MutationCase(name string, seed int64) Case {
	m := mutationSpecs[name]
	return Case{
		Fabric:   armci.FabricSim,
		Alg:      m.alg,
		Workload: m.workload,
		Sync:     m.sync,
		Faults:   m.faults,
		PPN:      m.ppn,
		Coalesce: m.coalesceHazard,
		Seed:     seed,
		Iters:    MutationIters,
		Mutation: name,
		LeaseTTL: m.leaseTTL,
	}
}

// DetectMutation sweeps seeds until the mutation's bug is caught,
// returning the first violating result. ok is false when no seed in the
// range exposed the bug — a harness failure.
func DetectMutation(name string, seedLo, seedHi int64) (Result, bool) {
	for seed := seedLo; seed <= seedHi; seed++ {
		r := RunCase(MutationCase(name, seed))
		if len(r.Violations) > 0 {
			return r, true
		}
	}
	return Result{}, false
}

// --- trace recording for the mutated variants ---

func recordLockOp(p *armci.Proc, kind trace.OpKind, idx, prev int, ticket int64) {
	env := p.Env()
	env.Trace().RecordOp(trace.OpEvent{
		Kind: kind, Rank: env.Rank(), Node: env.Node(env.Rank()),
		Lock: idx, Prev: prev, Ticket: ticket, Time: env.Clock().Now(),
	})
}

func recordSyncOp(p *armci.Proc, kind trace.OpKind, epoch int) {
	env := p.Env()
	env.Trace().RecordOp(trace.OpEvent{
		Kind: kind, Rank: env.Rank(), Node: env.Node(env.Rank()),
		Prev: -1, Ticket: -1, Epoch: epoch, Time: env.Clock().Now(),
	})
}

// --- broken MCS queue lock ---

type brokenQueueLock struct {
	p   *armci.Proc
	idx int
}

func (q *brokenQueueLock) table() *proc.LockTable { return q.p.Locks() }

func (q *brokenQueueLock) qnode() shmem.Ptr {
	return q.table().QNode[q.idx][q.p.Rank()]
}

// Lock is the correct MCS acquire (the bug is in the release).
func (q *brokenQueueLock) Lock() {
	p := q.p
	env := p.Env()
	mine := q.qnode()
	minePacked := shmem.PackPtr(mine)

	p.StorePair(mine.Add(proc.QNodeNextHi), shmem.Pair{})
	prev := p.SwapPair(q.table().MCS[q.idx], minePacked).UnpackPtr()
	if prev.IsNil() {
		recordLockOp(p, trace.OpAcquire, q.idx, -1, -1)
		return
	}
	p.Store(mine.Add(proc.QNodeLocked), 1)
	p.StorePair(prev.Add(proc.QNodeNextHi), minePacked)
	locked := mine.Add(proc.QNodeLocked)
	env.WaitUntil("broken-mcs-acquire", func() bool {
		return env.Space().Load(locked) == 0
	})
	recordLockOp(p, trace.OpAcquire, q.idx, int(prev.Rank), -1)
}

// Unlock skips the late-link wait: when the compare&swap fails because a
// requester swapped itself in but has not linked yet, the correct
// release waits for the link; this one reads the next pointer once and
// gives up, orphaning the successor on its spin.
func (q *brokenQueueLock) Unlock() {
	p := q.p
	recordLockOp(p, trace.OpRelease, q.idx, -1, -1)
	mine := q.qnode()
	minePacked := shmem.PackPtr(mine)
	nextField := mine.Add(proc.QNodeNextHi)

	next := p.LoadPair(nextField).UnpackPtr()
	if next.IsNil() {
		observed := p.CompareAndSwapPair(q.table().MCS[q.idx], minePacked, shmem.Pair{})
		if observed == minePacked {
			return
		}
		// BUG: should WaitUntil the successor links; gives up instead.
		next = p.LoadPair(nextField).UnpackPtr()
		if next.IsNil() {
			return // successor orphaned: it spins on its flag forever
		}
	}
	p.Store(next.Add(proc.QNodeLocked), 0)
}

// --- broken lease lock ---

// brokenLeaseLock mirrors core.LeaseLock — MCS queue for wake hints, the
// lease state pair {epoch, tenant} as the sole source of truth, TTL
// timeouts arming repair once a crash is on record — except that its
// release skips the epoch compare&swap (the bug, in Unlock).
type brokenLeaseLock struct {
	p   *armci.Proc
	idx int
	ttl time.Duration

	epoch    int64
	acquires int
}

func (l *brokenLeaseLock) table() *proc.LockTable { return l.p.Locks() }

// Lock is the correct lease acquire (the bug is in the release).
func (l *brokenLeaseLock) Lock() {
	p := l.p
	env := p.Env()
	t := l.table()
	mine := t.LeaseQNode[l.idx][p.Rank()]
	minePacked := shmem.PackPtr(mine)

	p.StorePair(mine.Add(proc.QNodeNextHi), shmem.Pair{})
	p.Store(mine.Add(proc.QNodeLocked), 1)
	prev := p.SwapPair(t.LeaseTail[l.idx], minePacked).UnpackPtr()
	prevRank := -1
	useFlag := false
	if !prev.IsNil() {
		prevRank = int(prev.Rank)
		useFlag = true
		p.StorePair(prev.Add(proc.QNodeNextHi), minePacked)
	}

	locked := mine.Add(proc.QNodeLocked)
	for {
		if useFlag {
			woke := env.WaitUntilFor("broken-lease-acquire", func() bool {
				return env.Space().Load(locked) == 0
			}, l.ttl)
			if woke {
				useFlag = false
				if l.tryRegister(prevRank) {
					return
				}
				continue
			}
			if l.maybeRecover() {
				return
			}
			continue
		}
		if l.tryRegister(prevRank) {
			return
		}
		env.WaitUntilFor("broken-lease-backoff", func() bool { return false }, l.ttl)
		if l.maybeRecover() {
			return
		}
	}
}

func (l *brokenLeaseLock) tryRegister(prevRank int) bool {
	p := l.p
	me := int64(p.Rank())
	state := l.table().LeaseState[l.idx]
	st := p.LoadPair(state)
	for st.Lo <= 0 {
		obs := p.CompareAndSwapPair(state, st, shmem.Pair{Hi: st.Hi, Lo: me + 1})
		if obs == st {
			l.granted(st.Hi, prevRank)
			return true
		}
		st = obs
	}
	return false
}

func (l *brokenLeaseLock) granted(epoch int64, prevRank int) {
	p := l.p
	l.epoch = epoch
	p.Store(l.table().LeaseStamp[l.idx], int64(p.Env().Clock().Now()))
	recordLeaseOp(p, trace.OpAcquire, l.idx, prevRank, int(epoch))
	l.acquires++
	l.maybeCrashHeld()
}

// maybeCrashHeld mirrors the lock layer's crashheld hook: the mutated
// variant must still honor the plan that designates the dying holder.
func (l *brokenLeaseLock) maybeCrashHeld() {
	p := l.p
	env := p.Env()
	f := env.Faults()
	if f.CrashHeldAcquire == 0 || p.Rank() != f.CrashHeldRank || l.acquires != f.CrashHeldAcquire {
		return
	}
	recordLeaseOp(p, trace.OpCrash, l.idx, -1, 0)
	env.FailStop("crashheld: fail-stop holding lock (mutated lease)")
}

func (l *brokenLeaseLock) maybeRecover() bool {
	p := l.p
	env := p.Env()
	if env.CrashedRank() < 0 {
		return false
	}
	t := l.table()
	state := t.LeaseState[l.idx]
	st := p.LoadPair(state)
	stamp := time.Duration(p.Load(t.LeaseStamp[l.idx]))
	now := env.Clock().Now()
	if now-stamp <= l.ttl {
		return false
	}
	if st.Lo > 0 {
		holder := int(st.Lo) - 1
		obs := p.CompareAndSwapPair(state, st, shmem.Pair{Hi: st.Hi + 1, Lo: -st.Lo})
		if obs != st {
			return false
		}
		recordLeaseOp(p, trace.OpRepair, l.idx, holder, int(st.Hi)+1)
		p.Store(t.LeaseStamp[l.idx], int64(now))
		victim := t.LeaseQNode[l.idx][holder]
		next := p.LoadPair(victim.Add(proc.QNodeNextHi)).UnpackPtr()
		if !next.IsNil() {
			p.Store(next.Add(proc.QNodeLocked), 0)
		}
		return false
	}
	me := int64(p.Rank())
	if p.CompareAndSwapPair(state, st, shmem.Pair{Hi: st.Hi, Lo: me + 1}) == st {
		l.granted(st.Hi, -1)
		return true
	}
	return false
}

// Unlock frees the lock WITHOUT the epoch compare&swap: a deposed holder
// should lose that CAS and have its release rejected as stale; this one
// stores the freed state unconditionally, handing the lock away from
// under whoever the repair granted it to.
func (l *brokenLeaseLock) Unlock() {
	p := l.p
	env := p.Env()
	t := l.table()
	me := int64(p.Rank())
	recordLeaseOp(p, trace.OpRelease, l.idx, -1, int(l.epoch))
	// BUG: should be CompareAndSwapPair({epoch, me+1} -> {epoch+1,
	// -(me+1)}) with the stale-release fallback; frees unconditionally.
	p.StorePair(t.LeaseState[l.idx], shmem.Pair{Hi: l.epoch + 1, Lo: -(me + 1)})
	p.Store(t.LeaseStamp[l.idx], int64(env.Clock().Now()))

	// MCS dequeue and wake, as the real release does.
	mine := t.LeaseQNode[l.idx][p.Rank()]
	minePacked := shmem.PackPtr(mine)
	nextField := mine.Add(proc.QNodeNextHi)
	next := p.LoadPair(nextField).UnpackPtr()
	if next.IsNil() {
		if p.CompareAndSwapPair(t.LeaseTail[l.idx], minePacked, shmem.Pair{}) == minePacked {
			return
		}
		for !env.WaitUntilFor("broken-lease-release-link", func() bool {
			return !p.LoadPair(nextField).UnpackPtr().IsNil()
		}, l.ttl) {
			if env.CrashedRank() >= 0 {
				return
			}
		}
		next = p.LoadPair(nextField).UnpackPtr()
	}
	p.Store(next.Add(proc.QNodeLocked), 0)
}

// recordLeaseOp is recordLockOp with the lease epoch attached.
func recordLeaseOp(p *armci.Proc, kind trace.OpKind, idx, prev, epoch int) {
	env := p.Env()
	env.Trace().RecordOp(trace.OpEvent{
		Kind: kind, Rank: env.Rank(), Node: env.Node(env.Rank()),
		Lock: idx, Prev: prev, Ticket: -1, Epoch: epoch, Time: env.Clock().Now(),
	})
}

// --- broken ticket lock ---

type brokenTicket struct {
	p      *armci.Proc
	idx    int
	ticket int64
}

// Lock takes a ticket but admits one position early: counter >= ticket-1
// instead of == ticket, so the next waiter overlaps the current holder.
func (l *brokenTicket) Lock() {
	p := l.p
	env := p.Env()
	base := p.Locks().TicketCounter[l.idx]
	l.ticket = p.FetchAdd(base.Add(proc.TicketWord), 1)
	counter := base.Add(proc.CounterWord)
	env.WaitUntil("broken-ticket-lock", func() bool {
		return env.Space().Load(counter) >= l.ticket-1 // BUG: off by one
	})
	recordLockOp(p, trace.OpAcquire, l.idx, -1, l.ticket)
}

func (l *brokenTicket) Unlock() {
	p := l.p
	recordLockOp(p, trace.OpRelease, l.idx, -1, l.ticket)
	base := p.Locks().TicketCounter[l.idx]
	p.FetchAdd(base.Add(proc.CounterWord), 1)
}

// --- broken synchronization variants ---

// brokenBarrier distributes op_init and synchronizes but never waits for
// the local server's op_done (stage ii skipped), so puts still in flight
// at entry can land after some rank has already exited.
func brokenBarrier(p *armci.Proc, epoch *int) func() {
	return func() {
		*epoch++
		recordSyncOp(p, trace.OpSyncEnter, *epoch)
		sum := make([]int64, p.NumNodes())
		copy(sum, p.Engine().OpInit())
		p.Comm().AllReduceSumInt64(sum)
		// BUG: stage ii — the wait for op_done[myNode] >= sum[myNode] —
		// is skipped.
		p.Comm().Barrier(collective.BarrierAuto)
		recordSyncOp(p, trace.OpSyncExit, *epoch)
	}
}

// mutTagBase is a private tag space for the mutated barrier's raw
// point-to-point traffic: above any user tag the workloads use and below
// mp's reserved collectives (1<<30), so a report the bug leaves
// unconsumed can never be matched by a later receive.
const mutTagBase = 1 << 29

// brokenKnomialBarrier runs stages i and ii of the combined barrier
// correctly — distribute op_init, wait for the local server's op_done —
// then replaces the stage-iii k-nomial barrier with a variant whose
// gather phase skips the parent's LAST child: the parent releases the
// whole tree without proof that the skipped subtree reached the barrier.
// A rank's own node is always fenced (stage ii is intact), so only a
// spike-delayed put to the skipped subtree's node — still in flight
// while the subtree sits in stage ii — exposes the hole.
func brokenKnomialBarrier(p *armci.Proc, epoch *int) func() {
	return func() {
		*epoch++
		recordSyncOp(p, trace.OpSyncEnter, *epoch)
		env := p.Env()

		// Stage i, correct: distribute op_init.
		sum := make([]int64, p.NumNodes())
		copy(sum, p.Engine().OpInit())
		p.Comm().AllReduceSumInt64(sum)

		// Stage ii, correct: wait for the local server to catch up.
		myNode := env.Node(env.Rank())
		opDone := p.Engine().Layout().OpDone[myNode]
		want := sum[myNode]
		env.WaitUntil(fmt.Sprintf("mut-knomial-op_done>=%d", want), func() bool {
			return env.Space().Load(opDone) >= want
		})

		// Stage iii, broken: k-nomial gather/release over raw sends, but
		// the parent never awaits the last child's subtree report.
		n, me := p.Size(), p.Rank()
		if n > 1 {
			gather := mutTagBase + *epoch<<1
			release := gather + 1
			parent, children := collective.KnomialTree(n, me, 4)
			for i, child := range children {
				if i == len(children)-1 {
					continue // BUG: last subtree releases unproven
				}
				env.Recv(msg.MatchSrcTag(msg.KindSend, msg.User(child), gather))
			}
			if parent >= 0 {
				env.Send(msg.User(parent), &msg.Message{Kind: msg.KindSend, Tag: gather})
				env.Recv(msg.MatchSrcTag(msg.KindSend, msg.User(parent), release))
			}
			for _, child := range children {
				env.Send(msg.User(child), &msg.Message{Kind: msg.KindSend, Tag: release})
			}
		}
		recordSyncOp(p, trace.OpSyncExit, *epoch)
	}
}

// brokenSyncOld is GA_Sync without the AllFence: a bare MPI barrier
// carrying none of the fence guarantee.
func brokenSyncOld(p *armci.Proc, epoch *int) func() {
	return func() {
		*epoch++
		recordSyncOp(p, trace.OpSyncEnter, *epoch)
		// BUG: AllFence skipped entirely.
		p.Comm().Barrier(collective.BarrierAuto)
		recordSyncOp(p, trace.OpSyncExit, *epoch)
	}
}
