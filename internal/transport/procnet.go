package transport

import (
	"errors"
	"fmt"
	"time"

	"armci/internal/cluster"
	"armci/internal/msg"
	"armci/internal/pipeline"
	"armci/internal/wire"
)

// ProcFabric runs one SMP node's slice of a multi-process cluster
// inside this OS process: the node's user ranks, data server and NIC
// agent as goroutines, with every message crossing a real inter-process
// TCP connection through the launch coordinator's star (see
// internal/cluster). It is the fourth fabric — the same protocol code
// that runs on simnet/channet/tcpnet runs here across genuine process
// boundaries, launched by cmd/armci-run.
//
// Each worker holds a full shmem.Space replica, but only its own node's
// memory is ever touched directly: the client-server model ships every
// remote operation as a message to the owning node's server, so replica
// divergence on remote segments is unobservable by construction.
// Messages still flow through the shared pipeline, so FIFO stamping,
// fault injection, dedup and metrics behave identically to the
// in-process fabrics — the sender's pipeline stamps the per-pair
// sequence, the receiver's suppresses duplicates, and the two never
// race because a directed pair's send state lives only at its source
// worker.
type ProcFabric struct {
	live
	env  cluster.WorkerEnv
	sess *cluster.Session

	// Elastic membership state, guarded by mu. A view change interrupts
	// local user actors (live.userIntr) so the elastic runner can drive
	// the recovery protocol; servers keep running to serve restore reads.
	viewEpoch uint64            // installed membership view epoch
	viewDead  int               // node slot replaced by the pending view change
	resume    *wire.EpochReport // latest recovery hand-off, nil until broadcast
	released  map[uint64]bool   // cluster barrier releases observed
}

// NewProc builds the fabric for the worker described by env. The config
// must agree with the launch shape — a worker built for a different
// cluster than the one that spawned it is a deployment bug worth
// failing loudly on.
func NewProc(cfg Config, env cluster.WorkerEnv) (*ProcFabric, error) {
	f := &ProcFabric{
		env:       env,
		viewEpoch: env.ViewEpoch,
		viewDead:  -1,
		released:  make(map[uint64]bool),
	}
	// Like tcpnet, procnet measures real socket costs: the cost-model
	// stage stays inactive; trace, fault injection and metrics run.
	if err := f.init("procnet", cfg, false); err != nil {
		return nil, err
	}
	if f.cfg.Procs != env.Procs || f.cfg.ProcsPerNode != env.ProcsPerNode {
		return nil, fmt.Errorf("procnet: config shape %d procs × %d/node does not match launch env %d × %d",
			f.cfg.Procs, f.cfg.ProcsPerNode, env.Procs, env.ProcsPerNode)
	}
	// A respawned incarnation stamps its traffic into the view it was
	// spawned under from its first message.
	f.pipe.SetEpoch(env.ViewEpoch)
	return f, nil
}

// SpawnUser registers the body of rank's user process. Ranks hosted by
// other workers are ignored — they run in their own OS processes.
func (f *ProcFabric) SpawnUser(rank int, body func(Env)) {
	if endpointNode(f.space, msg.User(rank)) == f.env.Node {
		f.live.SpawnUser(rank, body)
	}
}

// SpawnServer registers the body of node's data server (or NIC agent,
// for IDs at or beyond the node count). Non-local ones are ignored.
func (f *ProcFabric) SpawnServer(node int, body func(Env)) {
	if endpointNode(f.space, msg.ServerOf(node)) == f.env.Node {
		f.live.SpawnServer(node, body)
	}
}

// Run joins the launch rendezvous, executes the local actors to
// completion, participates in the cluster drain protocol and tears the
// session down. A worker lost elsewhere in the launch surfaces as its
// rank-attributed *pipeline.FaultError.
func (f *ProcFabric) Run() error {
	// The mailboxes (made at spawn) and the clock epoch must exist
	// before Join: the session can deliver data the instant the
	// rendezvous completes, and onData stamps arrivals against f.start.
	f.start = time.Now()
	sess, err := cluster.Join(f.env, cluster.Handlers{
		Data:    f.onData,
		Fault:   f.onFault,
		View:    f.onView,
		Resume:  f.onResume,
		Release: f.onRelease,
	})
	if err != nil {
		var fe *pipeline.FaultError
		if errors.As(err, &fe) {
			return fe // a peer died mid-rendezvous; keep the rank attribution
		}
		return fmt.Errorf("procnet: %w", err)
	}
	f.sess = sess
	defer sess.Close()
	return f.runActors(func(e liveEnv) Env { return &procEnv{e, f} }, f.drain)
}

// drain reports this node's users done. Servers must keep serving until
// every node's users have — remote ranks may still target this node's
// memory — so the coordinator's drain broadcast is the barrier before
// they stop.
func (f *ProcFabric) drain() (<-chan struct{}, error) {
	if err := f.sess.UserDone(); err != nil {
		if fe := f.sess.Err(); fe != nil {
			return nil, fe
		}
		return nil, fmt.Errorf("procnet: reporting users done: %w", err)
	}
	return f.sess.Drained(), nil
}

// onData is the session's delivery callback: decode, run the inbound
// pipeline stages (dedup, arrival stamping, metrics) and hand the
// message to the destination actor's mailbox.
func (f *ProcFabric) onData(body []byte) {
	m, err := wire.Decode(body)
	if err != nil {
		f.panics <- fmt.Errorf("procnet: node %d received corrupt frame: %w", f.env.Node, err)
		return
	}
	f.deliver(m)
}

// onFault surfaces a cluster fault — a peer worker died or the
// coordinator vanished — to every blocked local actor and to Run.
func (f *ProcFabric) onFault(fe *pipeline.FaultError) {
	f.stop(fe)
	f.panics <- fe
}

// onView installs a membership view. A newer epoch is a membership
// change: local user actors are interrupted out of their blocking calls
// so the elastic runner can abort the current sync epoch and run
// recovery. The pipeline epoch is NOT advanced here — that happens in
// AckView, after the user actor has unwound, so every message this
// worker sent for the aborted epoch still carries the old view epoch
// and is fenced out at receivers that have already advanced.
func (f *ProcFabric) onView(v wire.View) {
	f.mu.Lock()
	if v.Epoch > f.viewEpoch {
		f.viewEpoch = v.Epoch
		f.viewDead = v.Dead
		f.userIntr = &ViewInterrupt{Epoch: v.Epoch, Dead: v.Dead}
		f.resume = nil
		f.released = make(map[uint64]bool)
		f.cond.Broadcast()
	}
	f.mu.Unlock()
}

// onResume records the coordinator's recovery hand-off.
func (f *ProcFabric) onResume(r wire.EpochReport) {
	f.mu.Lock()
	f.resume = &r
	f.cond.Broadcast()
	f.mu.Unlock()
}

// onRelease records a cluster barrier release.
func (f *ProcFabric) onRelease(id uint64) {
	f.mu.Lock()
	f.released[id] = true
	f.cond.Broadcast()
	f.mu.Unlock()
}

// ViewInterrupt is the abort thrown through a user actor's blocking
// calls when a membership change invalidates the sync epoch it is
// executing. The elastic runner recovers it (see transport.AsViewInterrupt)
// and drives the recovery protocol; a workload that does not handle it
// fails the worker, which is the right outcome for non-elastic bodies
// run under an elastic launch.
type ViewInterrupt struct {
	// Epoch is the new membership view epoch.
	Epoch uint64
	// Dead is the node slot being replaced.
	Dead int
}

func (v *ViewInterrupt) Error() string {
	return fmt.Sprintf("membership view changed to epoch %d (node %d replaced)", v.Epoch, v.Dead)
}

// AsViewInterrupt reports whether a recovered panic value is a view
// interrupt — the elastic runner's recovery entry point.
func AsViewInterrupt(r any) (*ViewInterrupt, bool) {
	a, ok := r.(abort)
	if !ok {
		return nil, false
	}
	var vi *ViewInterrupt
	if errors.As(a.err, &vi) {
		return vi, true
	}
	return nil, false
}

// ElasticEnv is the recovery interface of fabrics that support elastic
// membership (currently procnet). The elastic runner type-asserts its
// Env to reach it; on fabrics without it, crashes are emulated
// cooperatively in-process instead.
type ElasticEnv interface {
	// ElasticEnabled reports whether this run repairs worker loss.
	ElasticEnabled() bool
	// Incarnation is this worker's spawn count (0 = initial launch).
	Incarnation() uint32
	// ViewEpoch is the installed membership view epoch — the recovery
	// barrier namespace of the current repair.
	ViewEpoch() uint64
	// AckView acknowledges the pending view change with this rank's
	// committed sync epoch and replica state. It clears the view
	// interrupt, fences the aborted epoch's traffic (mailbox purge,
	// pipeline epoch advance, dead-pair reset) and must be the first
	// env call on the recovery path.
	AckView(committed, shadow, staged uint64)
	// AwaitResume blocks for the coordinator's recovery hand-off and
	// returns the replaced node slot and the sync epoch to resume from.
	AwaitResume() (dead int, resume uint64)
	// ClusterBarrier blocks until every node of the launch entered
	// barrier id. Ids are reused across recovery re-executions.
	ClusterBarrier(id uint64)
}

var _ ElasticEnv = (*procEnv)(nil)

func (e *procEnv) ElasticEnabled() bool { return e.f.env.Elastic }
func (e *procEnv) Incarnation() uint32  { return e.f.env.Incarnation }

func (e *procEnv) ViewEpoch() uint64 {
	e.f.mu.Lock()
	defer e.f.mu.Unlock()
	return e.f.viewEpoch
}

// AckView fences the aborted sync epoch and acknowledges the view: from
// here on this worker stamps the new epoch, drops queued old-epoch
// traffic, and forgets per-pair sequencing with the replaced node (its
// respawned incarnation restarts sequences at 1).
func (e *procEnv) AckView(committed, shadow, staged uint64) {
	f := e.f
	f.mu.Lock()
	epoch := f.viewEpoch
	dead := f.viewDead
	f.userIntr = nil
	for _, q := range f.mailboxes {
		for q.TryPop(func(m *msg.Message) bool { return m.Epoch < epoch }) != nil {
		}
	}
	f.mu.Unlock()
	f.pipe.SetEpoch(epoch)
	f.pipe.ResetPeer(func(a msg.Addr) bool { return endpointNode(f.space, a) == dead })
	if err := f.sess.SendViewAck(wire.ViewAck{
		Node: f.env.Node, Epoch: epoch, Committed: committed, Shadow: shadow, Staged: staged,
	}); err != nil {
		if fe := f.sess.Err(); fe != nil {
			panic(abort{fe})
		}
		panic(fmt.Sprintf("procnet: node %d view ack: %v", f.env.Node, err))
	}
}

// AwaitResume blocks for the recovery hand-off. Deliberately exempt
// from the per-op deadline: the window includes a full process respawn,
// bounded by the cluster join timeout and the run deadline instead.
func (e *procEnv) AwaitResume() (int, uint64) {
	f := e.f
	f.mu.Lock()
	for f.resume == nil {
		if ferr := f.fault; ferr != nil {
			f.mu.Unlock()
			panic(abort{ferr})
		}
		f.cond.Wait()
	}
	r := *f.resume
	f.mu.Unlock()
	return r.Node, r.Epoch
}

// ClusterBarrier enters coordinator barrier id and blocks for its
// release. A view change mid-wait aborts with a ViewInterrupt.
func (e *procEnv) ClusterBarrier(id uint64) {
	f := e.f
	f.mu.Lock()
	// A release for this id from a previous use (pre-recovery
	// re-execution) must not satisfy this entry.
	delete(f.released, id)
	f.mu.Unlock()
	if err := f.sess.EnterBarrier(id); err != nil {
		if fe := f.sess.Err(); fe != nil {
			panic(abort{fe})
		}
		panic(fmt.Sprintf("procnet: node %d barrier %d: %v", f.env.Node, id, err))
	}
	f.mu.Lock()
	for !f.released[id] {
		if err := f.interruptLocked(e.addr); err != nil {
			f.mu.Unlock()
			panic(abort{err})
		}
		f.cond.Wait()
	}
	f.mu.Unlock()
}

// procEnv is the Env of one local actor on the proc fabric.
type procEnv struct {
	liveEnv
	f *ProcFabric
}

var _ Env = (*procEnv)(nil)

func (e *procEnv) Send(to msg.Addr, m *msg.Message) {
	e.f.mu.Lock()
	intr := e.f.userIntr
	e.f.mu.Unlock()
	if intr != nil && !e.addr.Server {
		panic(abort{intr})
	}
	err := e.f.pipe.SendTo(e.addr, to, m, e.f.now, nil,
		func(d pipeline.Delivery) {
			if werr := e.f.sess.SendMsg(d.Msg); werr != nil {
				if fe := e.f.sess.Err(); fe != nil {
					panic(abort{fe})
				}
				panic(fmt.Sprintf("procnet: send %v -> %v: %v", e.addr, to, werr))
			}
		})
	if err != nil {
		panic(abort{err}) // crash / retry exhaustion: abort this actor
	}
}

// FailStop on the multi-process fabric is job-fatal: the crash registry
// cannot cross process boundaries, so remote waiters could never
// distinguish the fail-stop from a wedged peer. The run aborts with the
// rank-attributed FaultError instead of silently dropping the actor.
func (e *procEnv) FailStop(op string) {
	panic(abort{e.f.pipe.CrashNow(e.addr.ID, op)})
}
