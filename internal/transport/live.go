package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"armci/internal/model"
	"armci/internal/msg"
	"armci/internal/pipeline"
	"armci/internal/shmem"
	"armci/internal/trace"
)

// live is the core the concurrent fabrics (channet, tcpnet, procnet)
// share: real goroutines blocking on one fabric-wide mutex and cond. It
// owns the mailboxes, every blocking wait with its per-op deadline and
// crash grace, the actor lifecycle (panic recovery and the two-phase
// shutdown) and the trivial Env accessors. A fabric embeds it and
// supplies only what differs: bring-up and teardown, how a message is
// delivered (straight into a mailbox, through a socket, or through the
// cluster session) and, for procnet, the elastic surface.
type live struct {
	name        string // fabric name prefixing errors
	cfg         Config
	space       *shmem.Space
	pipe        *pipeline.Pipeline
	chargeModel bool // Charge sleeps: the cost model is injected in wall time

	mu        sync.Mutex
	cond      *sync.Cond // broadcast on memory writes, deliveries, shutdown, timers
	mailboxes map[msg.Addr]*msg.Queue
	shutdown  bool
	crashAt   time.Time // wall time of the first fail-stop (zero: none)
	// fault aborts every blocked actor and userIntr only user actors;
	// both are guarded by mu. Only procnet sets them: a cluster fault
	// and a membership view change.
	fault    error
	userIntr error

	users   []actorSpec
	servers []actorSpec

	start time.Time

	panics chan error
}

// init normalizes cfg and builds the core in place: the Space, the
// pipeline (chargeModel selects its cost-model stage, see
// Config.newPipeline) and the memory-write wake-up.
func (l *live) init(name string, cfg Config, chargeModel bool) error {
	if err := cfg.normalize(); err != nil {
		return err
	}
	l.name, l.cfg, l.chargeModel = name, cfg, chargeModel
	l.space = shmem.NewSpace(cfg.nodeMap())
	l.pipe = cfg.newPipeline(l.space, chargeModel)
	l.mailboxes = make(map[msg.Addr]*msg.Queue)
	// Room for one report from every actor (ranks, servers, NIC agents)
	// plus one delivery or cluster fault, so no reporter blocks after Run
	// has returned on the first.
	l.panics = make(chan error, cfg.Procs+2*cfg.numNodes()+1)
	l.cond = sync.NewCond(&l.mu)
	l.space.SetOnWrite(l.broadcast)
	return nil
}

// broadcast wakes every blocked wait so it re-checks its condition.
func (l *live) broadcast() {
	l.mu.Lock()
	l.cond.Broadcast()
	l.mu.Unlock()
}

// noteCrash is the pipeline's crash notification for fabrics whose
// survivors may recover from a fail-stop: it wakes every blocked wait
// (crash-aware spins re-check the registry) and arms the grace timer
// that unwedges waits with no recovery path — see Config.CrashGrace.
func (l *live) noteCrash() {
	l.mu.Lock()
	if l.crashAt.IsZero() {
		l.crashAt = time.Now()
		time.AfterFunc(l.cfg.CrashGrace+10*time.Millisecond, l.broadcast)
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// now is the fabric's wall clock: the time since the run started.
func (l *live) now() time.Duration { return time.Since(l.start) }

// deliver runs the inbound pipeline stages on m — duplicate and stale
// epoch suppression, arrival stamping, trace and metrics — and queues it
// in its destination's mailbox.
func (l *live) deliver(m *msg.Message) {
	l.mu.Lock()
	if l.pipe.Inbound(m, l.now()) {
		if q := l.mailboxes[m.Dst]; q != nil {
			q.Put(m)
		}
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// Space returns the cluster's shared memory.
func (l *live) Space() *shmem.Space { return l.space }

// Config returns the cluster configuration.
func (l *live) Config() *Config { return &l.cfg }

// SpawnUser registers the body of rank's user process.
func (l *live) SpawnUser(rank int, body func(Env)) {
	l.users = l.spawn(l.users, msg.User(rank), body)
}

// SpawnServer registers the body of node's data server (or NIC agent,
// for IDs at or beyond the node count).
func (l *live) SpawnServer(node int, body func(Env)) {
	l.servers = l.spawn(l.servers, msg.ServerOf(node), body)
}

func (l *live) spawn(list []actorSpec, a msg.Addr, body func(Env)) []actorSpec {
	l.mailboxes[a] = &msg.Queue{}
	return append(list, actorSpec{addr: a, body: body})
}

// runActors starts every registered actor, each with the Env newEnv
// builds, and shuts the cluster down in phases: wait for the user
// processes; then, when drain is non-nil, for the channel it returns
// (procnet's cluster-wide drain); then stop the servers, whose pending
// Recv returns nil, and wait for them. Each phase is bounded by the run
// deadline (default 120 s wall time). It returns the first actor error.
func (l *live) runActors(newEnv func(liveEnv) Env, drain func() (<-chan struct{}, error)) error {
	var users, servers sync.WaitGroup
	for _, a := range l.servers {
		servers.Add(1)
		go l.runActor(a, newEnv, &servers)
	}
	for _, a := range l.users {
		users.Add(1)
		go l.runActor(a, newEnv, &users)
	}
	if err := l.await(finished(&users), "user processes"); err != nil {
		return err
	}
	if drain != nil {
		drained, err := drain()
		if err != nil {
			return err
		}
		if err := l.await(drained, "the cluster drain"); err != nil {
			return err
		}
	}
	l.stop(nil)
	if err := l.await(finished(&servers), "servers to drain"); err != nil {
		return err
	}
	select {
	case err := <-l.panics:
		return err
	default:
		return nil
	}
}

// finished returns a channel closed once wg's count reaches zero.
func finished(wg *sync.WaitGroup) <-chan struct{} {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	return done
}

// await blocks until done is closed, an actor fails, or the run
// deadline elapses.
func (l *live) await(done <-chan struct{}, what string) error {
	deadline := l.cfg.Deadline
	if deadline == 0 {
		deadline = 120 * time.Second
	}
	select {
	case <-done:
		return nil
	case err := <-l.panics:
		return err
	case <-time.After(deadline):
		return fmt.Errorf("%s: deadline %v exceeded waiting for %s", l.name, deadline, what)
	}
}

// runActor runs one actor body. A fail-stop panic ends the actor alone;
// any other panic is reported to Run and shuts the fabric down, so no
// other actor stays wedged on it.
func (l *live) runActor(spec actorSpec, newEnv func(liveEnv) Env, wg *sync.WaitGroup) {
	defer wg.Done()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, ok := r.(failStop); ok {
			return // injected fail-stop: the actor vanishes, the run continues
		}
		if a, ok := r.(abort); ok && a.err != nil {
			l.panics <- a.err // structured fault, propagate verbatim
		} else {
			l.panics <- fmt.Errorf("%s: actor %v panicked: %v", l.name, spec.addr, r)
		}
		l.stop(nil)
	}()
	spec.body(newEnv(liveEnv{l: l, addr: spec.addr}))
}

// stop begins shutdown: blocked servers return, and a non-nil fault
// aborts every blocked actor.
func (l *live) stop(fault error) {
	l.mu.Lock()
	l.shutdown = true
	if fault != nil {
		l.fault = fault
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// interruptLocked returns the error that must unwind the actor at a
// instead of letting it block, or nil. Callers hold l.mu.
func (l *live) interruptLocked(a msg.Addr) error {
	if l.fault != nil {
		return l.fault
	}
	if l.userIntr != nil && !a.Server {
		return l.userIntr // servers keep serving the recovery protocol
	}
	return nil
}

// liveEnv is the Env core of one concurrent-fabric actor; each fabric's
// Env embeds it and adds Send.
type liveEnv struct {
	l    *live
	addr msg.Addr
}

func (e *liveEnv) Self() msg.Addr          { return e.addr }
func (e *liveEnv) Rank() int               { return e.addr.ID }
func (e *liveEnv) Size() int               { return e.l.cfg.Procs }
func (e *liveEnv) NumNodes() int           { return e.l.cfg.numNodes() }
func (e *liveEnv) Node(rank int) int       { return e.l.space.Node(rank) }
func (e *liveEnv) Space() *shmem.Space     { return e.l.space }
func (e *liveEnv) Params() model.Params    { return e.l.cfg.Model }
func (e *liveEnv) Trace() *trace.Stats     { return e.l.cfg.Trace }
func (e *liveEnv) Clock() Clock            { return wallClock{e.l.start} }
func (e *liveEnv) Faults() pipeline.Faults { return e.l.pipe.Faults() }

// CrashedRank consults the process-local crash registry. On procnet a
// rank fail-stopped in another worker is detected by the cluster layer
// (heartbeats, connection loss) as a FaultPeerLost instead.
func (e *liveEnv) CrashedRank() int { return e.l.pipe.FirstCrashed() }

type wallClock struct{ start time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.start) }
func (c wallClock) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// Charge models d of CPU work in wall time when the fabric injects its
// cost model; the socket fabrics measure real costs and never sleep.
func (e *liveEnv) Charge(d time.Duration) {
	if d > 0 && e.l.chargeModel {
		time.Sleep(d)
	}
}

// send runs m through the send pipeline, handing each delivery to emit.
// A rejected send unwinds the actor: an injected crash fail-stops a user
// actor alone (survivors learn of it through the crash registry and the
// grace timer), anything else — retry exhaustion — aborts the run.
func (e *liveEnv) send(to msg.Addr, m *msg.Message, emit func(pipeline.Delivery)) {
	err := e.l.pipe.SendTo(e.addr, to, m, e.l.now, e.Charge, emit)
	if err == nil {
		return
	}
	var fe *pipeline.FaultError
	if errors.As(err, &fe) && fe.Kind == pipeline.FaultCrash && !e.addr.Server {
		e.l.pipe.NoteCrash(e.addr.ID)
		panic(failStop{})
	}
	panic(abort{err})
}

func (e *liveEnv) Recv(match msg.Match) *msg.Message {
	q := e.l.mailboxes[e.addr]
	var m *msg.Message
	// Servers are exempt from the per-op deadline: idling is their job.
	if !e.block("", !e.addr.Server, func() bool { m = q.TryPop(match); return m != nil }) {
		return nil
	}
	// Enforce the stamped (modeled or fault-injected) arrival time in
	// wall time; an actual socket arrival is already in the past.
	if wait := m.Arrival - e.l.now(); wait > 0 {
		time.Sleep(wait)
	}
	e.l.pipe.RecvCharge(e.Charge)
	return m
}

func (e *liveEnv) TryRecv(match msg.Match) *msg.Message {
	// Only messages whose stamped arrival time has passed are eligible:
	// polling must never observe a message earlier than Recv (which
	// sleeps out the remaining latency) would deliver it. Per-pair
	// arrival times are monotone, so gating on arrival keeps FIFO.
	now := e.l.now()
	e.l.mu.Lock()
	err := e.l.interruptLocked(e.addr)
	var m *msg.Message
	if err == nil {
		m = e.l.mailboxes[e.addr].TryPop(func(m *msg.Message) bool {
			return m.Arrival <= now && match(m)
		})
	}
	e.l.mu.Unlock()
	if err != nil {
		panic(abort{err})
	}
	if m != nil {
		e.l.pipe.RecvCharge(e.Charge)
	}
	return m
}

func (e *liveEnv) WaitUntil(tag string, pred func() bool) {
	e.block(tag, true, pred)
}

// block waits on the fabric cond until done (called with l.mu held)
// reports true. A server returns false instead once the fabric shuts
// down. A user actor unwinds when a registered crash has outlived
// CrashGrace and this wait has itself been blocked that long — a
// per-wait bound, so a run that keeps making progress after lease
// repair is never aborted retroactively. With timed set, the wait also
// unwinds after Config.OpDeadline. tag names the operation in fault
// reports; "" stands for this actor's receive, whose name is built only
// when a fault needs it.
func (e *liveEnv) block(tag string, timed bool, done func() bool) bool {
	l := e.l
	start := time.Now()
	var opEnd time.Time
	if od := l.cfg.OpDeadline; timed && od > 0 {
		opEnd = start.Add(od)
		t := time.AfterFunc(od, l.broadcast)
		defer t.Stop()
	}
	var graceTimer *time.Timer
	defer func() {
		if graceTimer != nil {
			graceTimer.Stop()
		}
	}()
	l.mu.Lock()
	defer l.mu.Unlock()
	for !done() {
		if err := l.interruptLocked(e.addr); err != nil {
			panic(abort{err})
		}
		if e.addr.Server {
			if l.shutdown {
				return false
			}
		} else if !l.crashAt.IsZero() {
			grace := l.cfg.CrashGrace
			blocked, sinceCrash := time.Since(start), time.Since(l.crashAt)
			if blocked > grace && sinceCrash > grace {
				panic(abort{&pipeline.FaultError{Rank: l.pipe.FirstCrashed(), Op: e.op(tag), Kind: pipeline.FaultCrash}})
			}
			if graceTimer == nil {
				// Wake this wait the moment the bound will be reached.
				graceTimer = time.AfterFunc(max(grace-blocked, grace-sinceCrash)+10*time.Millisecond, l.broadcast)
			}
		}
		if !opEnd.IsZero() && !time.Now().Before(opEnd) {
			panic(opTimeout(e.addr, e.op(tag)))
		}
		l.cond.Wait()
	}
	return true
}

// op names a blocking operation for a fault report (see block).
func (e *liveEnv) op(tag string) string {
	if tag == "" {
		return "recv@" + e.addr.String()
	}
	return tag
}

func (e *liveEnv) WaitUntilFor(tag string, pred func() bool, d time.Duration) bool {
	if d <= 0 {
		e.WaitUntil(tag, pred)
		return true
	}
	l := e.l
	end := time.Now().Add(d)
	t := time.AfterFunc(d, l.broadcast)
	defer t.Stop()
	l.mu.Lock()
	defer l.mu.Unlock()
	for !pred() {
		if err := l.interruptLocked(e.addr); err != nil {
			panic(abort{err})
		}
		if !time.Now().Before(end) {
			return false
		}
		l.cond.Wait()
	}
	return true
}

// FailStop ends this actor as an injected fail-stop crash; the rest of
// the cluster keeps running (procnet overrides it as job-fatal).
func (e *liveEnv) FailStop(op string) {
	e.l.pipe.CrashNow(e.addr.ID, op)
	panic(failStop{})
}

func (e *liveEnv) AbortFault(err *pipeline.FaultError) {
	panic(abort{err})
}
