package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestCallbackPanicOnProcessGoroutine fires a panicking callback while a
// process holds control, so the loop runs the callback on that process's
// goroutine, inside its Hold. The panic must come out of RunUntil with its
// own value, the process's recover must never see it, and Close must still
// end the process and leave no goroutine behind.
func TestCallbackPanicOnProcessGoroutine(t *testing.T) {
	type boom struct{ at Time }
	base := runtime.NumGoroutine()
	k := New(1)
	recovered := false
	k.Spawn("holder", func(p *Proc) {
		defer func() {
			if recover() != nil {
				recovered = true
			}
		}()
		p.Hold(time.Second)
	})
	inHold := false
	k.At(time.Millisecond, func() {
		buf := make([]byte, 4096)
		inHold = strings.Contains(string(buf[:runtime.Stack(buf, false)]), "(*Proc).Hold")
		panic(boom{k.Now()})
	})
	got := func() (v any) {
		defer func() { v = recover() }()
		_ = k.RunUntil(time.Hour)
		return nil
	}()
	if got != (boom{time.Millisecond}) {
		t.Fatalf("RunUntil raised %v, want boom{1ms}", got)
	}
	if !inHold {
		t.Fatal("the callback did not run on the holding process's goroutine; the test no longer covers that case")
	}
	if k.Current() != nil {
		t.Fatalf("Current() = %q after the panic, want nil", k.Current().Name())
	}
	k.Close()
	if recovered {
		t.Fatal("the process's recover saw a callback's panic")
	}
	waitGoroutines(t, base)
}

// TestHoldAloneSwitchesNothing runs a process whose every Hold has no other
// event due before its wake-up: its goroutine pops its own wake-up and runs
// on, so it never parks inside Hold. The block profile records every channel
// operation that parks a goroutine; two processes taking turns are the
// control showing that it sees the hand-offs a Hold does make.
func TestHoldAloneSwitchesNothing(t *testing.T) {
	runtime.SetBlockProfileRate(1)
	defer runtime.SetBlockProfileRate(0)
	const holds = 50
	k := New(1)
	k.Spawn("alone", holdAlone(holds))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Spawn("ping", holdInTurn(holds))
	k.Spawn("pong", holdInTurn(holds))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n := parkedIn(".holdAlone."); n != 0 {
		t.Errorf("a process holding alone parked %d times inside Hold, want 0", n)
	}
	if n := parkedIn(".holdInTurn."); n < holds {
		t.Errorf("two processes taking turns parked %d times inside Hold, want at least %d", n, holds)
	}
}

func holdAlone(n int) func(*Proc) {
	return func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Hold(time.Millisecond)
		}
	}
}

// holdInTurn is holdAlone under another name, so that the block profile
// tells the two runs apart.
func holdInTurn(n int) func(*Proc) {
	return func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Hold(time.Millisecond)
		}
	}
}

// parkedIn counts the block-profile events whose stack passes through both
// Hold and a function whose name contains fn.
func parkedIn(fn string) int64 {
	var recs []runtime.BlockProfileRecord
	for {
		n, ok := runtime.BlockProfile(recs)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.BlockProfileRecord, n+16)
	}
	var total int64
	for _, r := range recs {
		var hold, in bool
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			hold = hold || strings.HasSuffix(f.Function, ".(*Proc).Hold")
			in = in || strings.Contains(f.Function, fn)
			if !more {
				break
			}
		}
		if hold && in {
			total += r.Count
		}
	}
	return total
}
