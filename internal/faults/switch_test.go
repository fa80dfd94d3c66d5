package faults

import (
	"sync"
	"testing"

	"mrcprm/internal/sim"
)

func TestSwitchDelegatesAndSwaps(t *testing.T) {
	always, err := New(Config{TaskFailureProb: 0.999, Seed1: 1, Seed2: 2})
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSwitch()
	if f := sw.Attempt("t0_m1", 0); f.Fails || f.Factor > 1 {
		t.Fatalf("empty switch injected %+v", f)
	}
	sw.Set(always)
	fails := 0
	for i := 0; i < 100; i++ {
		if sw.Attempt("t0_m1", i).Fails {
			fails++
		}
	}
	if fails < 90 {
		t.Fatalf("only %d/100 attempts failed after installing a 0.999 plan", fails)
	}
	sw.Set(nil)
	if sw.Attempt("t0_m1", 0).Fails {
		t.Fatal("cleared switch still injecting")
	}
}

func TestSwitchConcurrentSetAndAttempt(t *testing.T) {
	plan, err := New(Config{TaskFailureProb: 0.5, Seed1: 7, Seed2: 8})
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSwitch()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				sw.Set(plan)
			} else {
				sw.Set(nil)
			}
		}
	}()
	for i := 0; i < 10_000; i++ {
		sw.Attempt("t1_r1", i)
	}
	close(stop)
	wg.Wait()
	var _ sim.FaultInjector = sw
}
