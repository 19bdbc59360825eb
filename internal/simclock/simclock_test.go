package simclock

import (
	"sync"
	"testing"
	"time"
)

var epoch = time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)

func TestSimulatedNow(t *testing.T) {
	c := NewSimulated(epoch)
	if !c.Now().Equal(epoch) {
		t.Fatalf("Now() = %v, want %v", c.Now(), epoch)
	}
	c.Advance(time.Minute)
	if got, want := c.Now(), epoch.Add(time.Minute); !got.Equal(want) {
		t.Fatalf("Now() after Advance = %v, want %v", got, want)
	}
}

func TestAfterFiresInOrder(t *testing.T) {
	c := NewSimulated(epoch)
	ch2 := c.After(2 * time.Minute)
	ch1 := c.After(1 * time.Minute)
	ch3 := c.After(3 * time.Minute)

	if n := c.Advance(90 * time.Second); n != 1 {
		t.Fatalf("Advance fired %d timers, want 1", n)
	}
	select {
	case at := <-ch1:
		if want := epoch.Add(time.Minute); !at.Equal(want) {
			t.Errorf("timer1 fired at %v, want %v", at, want)
		}
	default:
		t.Fatal("timer1 did not fire")
	}
	select {
	case <-ch2:
		t.Fatal("timer2 fired early")
	default:
	}

	if n := c.Advance(10 * time.Minute); n != 2 {
		t.Fatalf("Advance fired %d timers, want 2", n)
	}
	<-ch2
	<-ch3
}

func TestAfterZeroFiresImmediately(t *testing.T) {
	c := NewSimulated(epoch)
	select {
	case <-c.After(0):
	default:
		t.Fatal("After(0) did not fire immediately")
	}
	select {
	case <-c.After(-time.Second):
	default:
		t.Fatal("After(negative) did not fire immediately")
	}
}

func TestAdvanceToNext(t *testing.T) {
	c := NewSimulated(epoch)
	if c.AdvanceToNext() {
		t.Fatal("AdvanceToNext on empty clock returned true")
	}
	ch := c.After(5 * time.Minute)
	if !c.AdvanceToNext() {
		t.Fatal("AdvanceToNext with a pending timer returned false")
	}
	select {
	case <-ch:
	default:
		t.Fatal("timer did not fire")
	}
	if got, want := c.Now(), epoch.Add(5*time.Minute); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestSleepBlocksUntilAdvance(t *testing.T) {
	c := NewSimulated(epoch)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Sleep(time.Hour)
		close(done)
	}()
	// Wait until the sleeper registers its timer.
	for len(c.PendingTimers()) == 0 {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("Sleep returned before Advance")
	default:
	}
	c.Advance(time.Hour)
	wg.Wait()
}

func TestPendingTimersSorted(t *testing.T) {
	c := NewSimulated(epoch)
	c.After(3 * time.Minute)
	c.After(1 * time.Minute)
	c.After(2 * time.Minute)
	ts := c.PendingTimers()
	if len(ts) != 3 {
		t.Fatalf("PendingTimers len = %d, want 3", len(ts))
	}
	for i := 1; i < len(ts); i++ {
		if ts[i].Before(ts[i-1]) {
			t.Fatalf("PendingTimers not sorted: %v", ts)
		}
	}
}

func TestEqualDeadlinesFIFO(t *testing.T) {
	c := NewSimulated(epoch)
	first := c.After(time.Minute)
	second := c.After(time.Minute)
	c.Advance(time.Minute)
	// Both fired; just verify both channels deliver.
	<-first
	<-second
}

func TestRealClock(t *testing.T) {
	var c Clock = Real{}
	before := time.Now()
	now := c.Now()
	if now.Before(before.Add(-time.Second)) {
		t.Fatalf("Real.Now() = %v too far in past", now)
	}
	start := time.Now()
	c.Sleep(time.Millisecond)
	if time.Since(start) < time.Millisecond {
		t.Fatal("Real.Sleep returned too early")
	}
	select {
	case <-c.After(time.Millisecond):
	case <-time.After(time.Second):
		t.Fatal("Real.After never fired")
	}
}

// TestNoWaitNeverBlocks: NoWait reads the wrapped clock's time, and
// its waits neither block nor leave timers on the wrapped clock.
func TestNoWaitNeverBlocks(t *testing.T) {
	sim := NewSimulated(epoch)
	var c Clock = NoWait{Clock: sim}
	c.Sleep(time.Hour)
	select {
	case at := <-c.After(time.Hour):
		if !at.Equal(epoch) {
			t.Errorf("After delivered %v, want the wrapped clock's %v", at, epoch)
		}
	default:
		t.Fatal("NoWait.After did not fire at once")
	}
	if n := len(sim.PendingTimers()); n != 0 {
		t.Errorf("NoWait left %d timers on the wrapped clock", n)
	}
	sim.Advance(time.Minute)
	if got, want := c.Now(), epoch.Add(time.Minute); !got.Equal(want) {
		t.Errorf("Now() = %v, want the wrapped clock's %v", got, want)
	}
}

func TestConcurrentAfter(t *testing.T) {
	c := NewSimulated(epoch)
	const n = 100
	var wg sync.WaitGroup
	chs := make([]<-chan time.Time, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			chs[i] = c.After(time.Duration(i+1) * time.Second)
		}(i)
	}
	wg.Wait()
	if fired := c.Advance(time.Duration(n) * time.Second); fired != n {
		t.Fatalf("fired %d timers, want %d", fired, n)
	}
	for i, ch := range chs {
		select {
		case <-ch:
		default:
			t.Fatalf("timer %d did not fire", i)
		}
	}
}
