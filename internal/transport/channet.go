package transport

import (
	"fmt"
	"time"

	"armci/internal/msg"
	"armci/internal/pipeline"
)

// ChanFabric runs the cluster as real goroutines communicating through
// in-process mailboxes. It is the fabric used by correctness and stress
// tests: everything is truly concurrent, so races and protocol bugs that
// the sequential simulator cannot exhibit are exercised here. With a
// non-zero cost model it also injects latency in wall time (arrival-time
// stamping on a FIFO pipe model), which the demo benchmarks use.
type ChanFabric struct {
	live
}

// NewChan builds an in-process channel fabric for the configuration.
func NewChan(cfg Config) (*ChanFabric, error) {
	f := &ChanFabric{}
	if err := f.init("channet", cfg, cfg.Model.Latency > 0); err != nil {
		return nil, err
	}
	f.pipe.SetCrashNotify(f.noteCrash)
	return f, nil
}

// Run starts every actor goroutine, waits for all user processes, then
// shuts the servers down (their pending Recv returns nil) and waits for
// them too. It returns the first actor panic, or an error if the deadline
// (default 120 s wall time) elapses.
func (f *ChanFabric) Run() error {
	f.start = time.Now()
	return f.runActors(func(e liveEnv) Env { return &chanEnv{e} }, nil)
}

// chanEnv is the Env of one channel-fabric actor.
type chanEnv struct{ liveEnv }

var _ Env = (*chanEnv)(nil)

func (e *chanEnv) Send(to msg.Addr, m *msg.Message) {
	// The mailbox map is fixed before any actor starts, so reading it
	// without the fabric lock is race-free here.
	if _, ok := e.l.mailboxes[to]; !ok {
		panic(fmt.Sprintf("channet: send to unknown endpoint %v", to))
	}
	// Messages enter the mailbox immediately in send order (injected
	// duplicates trail their original, where dedup drops them); the
	// stamped arrival time is enforced on the receive side. emit runs
	// outside the pipeline lock, so taking the fabric lock here cannot
	// deadlock against Inbound's pipeline locking.
	e.send(to, m, func(d pipeline.Delivery) { e.l.deliver(d.Msg) })
}
