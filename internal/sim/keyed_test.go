package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestKeyedWakeFollowsRegistrationOrder: waits on two keys and one nil-key
// wait, all satisfied by a single process step, wake in the order they
// were registered — not spawn order, not signal order.
func TestKeyedWakeFollowsRegistrationOrder(t *testing.T) {
	k := New()
	var keyA, keyB Key
	var readyA, readyB, readyNil bool
	var order []string
	waiter := func(name string, delay time.Duration, key *Key, ready *bool) {
		k.Spawn(name, func(p *Proc) {
			if delay > 0 {
				p.Sleep(delay)
			}
			p.WaitOn(key, name, func() bool { return *ready })
			order = append(order, name)
		})
	}
	// Registration order: b and d at 0, c at 1µs, a at 2µs.
	waiter("a", 2*time.Microsecond, &keyA, &readyA)
	waiter("b", 0, nil, &readyNil)
	waiter("c", time.Microsecond, &keyB, &readyB)
	waiter("d", 0, &keyA, &readyA)
	k.Spawn("writer", func(p *Proc) {
		p.Sleep(3 * time.Microsecond)
		readyA, readyB, readyNil = true, true, true
		k.Signal(&keyB)
		k.Signal(&keyA)
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(order, ","), "b,d,c,a"; got != want {
		t.Fatalf("wake order %s, want %s", got, want)
	}
}

// TestKeyedWaitIgnoresUnsignalledChange: a keyed wait is re-evaluated only
// after its key is signalled, while a nil-key wait observes the same
// change at the next recheck.
func TestKeyedWaitIgnoresUnsignalledChange(t *testing.T) {
	k := New()
	var key Key
	ready := false
	var keyedAt, nilAt time.Duration
	k.Spawn("keyed", func(p *Proc) {
		p.WaitOn(&key, "keyed", func() bool { return ready })
		keyedAt = p.Now()
	})
	k.Spawn("nil", func(p *Proc) {
		p.WaitUntil("nil", func() bool { return ready })
		nilAt = p.Now()
	})
	k.Spawn("writer", func(p *Proc) {
		p.Sleep(time.Microsecond)
		ready = true // no Signal: only the nil-key wait sees it
		p.Sleep(time.Microsecond)
		k.Signal(&key)
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if nilAt != time.Microsecond || keyedAt != 2*time.Microsecond {
		t.Fatalf("nil-key wait woke at %v (want 1µs), keyed wait at %v (want 2µs)", nilAt, keyedAt)
	}
}

// TestStalePokeNeitherWakesEarlyNorQueuesTwice: a timer armed for one wait
// fires after that wait ended. Its Poke re-evaluates the process's next
// wait once — even when poked twice and signalled in the same batch —
// and does not end it while its predicate is false.
func TestStalePokeNeitherWakesEarlyNorQueuesTwice(t *testing.T) {
	k := New()
	var keyA, keyB Key
	var readyA, readyB bool
	evalsB := 0
	var wokeA, wokeB time.Duration
	var queuedAfterPokes int
	var waiter *Proc
	waiter = k.Spawn("waiter", func(p *Proc) {
		k.After(5*time.Microsecond, func() {
			// The timer of the first wait, long since satisfied.
			k.Poke(waiter)
			k.Poke(waiter)
			queuedAfterPokes = len(k.poked)
			k.Signal(&keyB)
		})
		p.WaitOn(&keyA, "a", func() bool { return readyA })
		wokeA = p.Now()
		p.WaitOn(&keyB, "b", func() bool {
			evalsB++
			return readyB
		})
		wokeB = p.Now()
	})
	k.Spawn("writer", func(p *Proc) {
		p.Sleep(time.Microsecond)
		readyA = true
		k.Signal(&keyA)
		p.Sleep(7 * time.Microsecond)
		readyB = true
		k.Signal(&keyB)
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if wokeA != time.Microsecond || wokeB != 8*time.Microsecond {
		t.Fatalf("woke at %v and %v, want 1µs and 8µs", wokeA, wokeB)
	}
	if queuedAfterPokes != 1 {
		t.Errorf("two pokes queued the process %d times, want 1", queuedAfterPokes)
	}
	// Entry, the stale-poke batch at 5µs (once, though poked twice and
	// signalled), and the real signal at 8µs.
	if evalsB != 3 {
		t.Errorf("second wait's predicate evaluated %d times, want 3", evalsB)
	}
}

// TestSignalWithoutWaitersIsNoop: signalling a key nobody waits on queues
// nothing, and a later wait on that key is not woken by the old signal.
func TestSignalWithoutWaitersIsNoop(t *testing.T) {
	k := New()
	var key Key
	ready := false
	var woke time.Duration
	k.Spawn("signaller", func(p *Proc) {
		ready = true
		k.Signal(&key)
		if key.signaled || len(k.signaled) != 0 {
			t.Errorf("signal without waiters was queued (%d keys queued)", len(k.signaled))
		}
		ready = false
		p.Sleep(2 * time.Microsecond)
		ready = true
		k.Signal(&key)
	})
	k.Spawn("late-waiter", func(p *Proc) {
		p.Sleep(time.Microsecond)
		p.WaitOn(&key, "late", func() bool { return ready })
		woke = p.Now()
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if woke != 2*time.Microsecond {
		t.Fatalf("late waiter woke at %v, want 2µs", woke)
	}
}

// TestKeyedWaitDeadlockReport: a keyed wait that is never satisfied shows
// up in the deadlock report under its tag, as a nil-key wait does.
func TestKeyedWaitDeadlockReport(t *testing.T) {
	k := New()
	var key Key
	k.Spawn("stuck", func(p *Proc) {
		p.WaitOn(&key, "recv@p0", func() bool { return false })
	})
	err := k.Run(0)
	if err == nil || !strings.Contains(err.Error(), "stuck(recv@p0)") {
		t.Fatalf("deadlock report %v does not name the keyed wait", err)
	}
}

// keyedPingPong runs cycles Signal -> recheck -> wake round trips between
// a writer and one keyed waiter, with no events scheduled.
func keyedPingPong(cycles int) error {
	k := New()
	var key Key
	state, seen := 0, 0
	pred := func() bool { return state > seen }
	k.Spawn("waiter", func(p *Proc) {
		for seen < cycles {
			p.WaitOn(&key, "ping", pred)
			seen++
		}
	})
	k.Spawn("writer", func(p *Proc) {
		for i := 0; i < cycles; i++ {
			state++
			k.Signal(&key)
			p.YieldProc()
		}
	})
	return k.Run(0)
}

// TestKeyedWakeAllocBudget pins the steady-state Signal -> recheck -> wake
// cycle to zero allocations: doubling the number of cycles must not add
// a single allocation beyond the fixed setup.
func TestKeyedWakeAllocBudget(t *testing.T) {
	var runErr error
	allocs := func(cycles int) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := keyedPingPong(cycles); err != nil {
				runErr = err
			}
		})
	}
	small, large := allocs(2000), allocs(4000)
	if runErr != nil {
		t.Fatal(runErr)
	}
	if large > small {
		t.Errorf("2000 extra wake cycles cost %.0f allocations (%.0f vs %.0f), want 0",
			large-small, large, small)
	}
}

// BenchmarkKernelKeyedWake: n processes blocked on their own keys; every
// event changes one waiter's state and signals its key. The cost of an
// op — one event, one recheck, one wake — must not grow with n.
func BenchmarkKernelKeyedWake(b *testing.B) {
	for _, n := range []int{16, 4096} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			k := New()
			keys := make([]Key, n)
			state := make([]int, n)
			done := false
			for i := 0; i < n; i++ {
				i := i
				seen := 0
				pred := func() bool { return done || state[i] > seen }
				k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
					for {
						p.WaitOn(&keys[i], "w", pred)
						if done {
							return
						}
						seen++
					}
				})
			}
			op := 0
			var fire func()
			fire = func() {
				if op == b.N {
					done = true
					for i := range keys {
						k.Signal(&keys[i])
					}
					return
				}
				j := op % n
				state[j]++
				k.Signal(&keys[j])
				op++
				k.After(time.Nanosecond, fire)
			}
			k.At(time.Nanosecond, func() {
				// Every waiter registered at time 0; time only the events.
				b.ResetTimer()
				fire()
			})
			if err := k.Run(0); err != nil {
				b.Fatal(err)
			}
		})
	}
}
