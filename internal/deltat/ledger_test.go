package deltat

import (
	"reflect"
	"sync/atomic"
	"testing"

	"soda/internal/frame"
)

// ledgerValues returns the ledger's non-zero counters by field name.
func ledgerValues(l *Ledger) map[string]uint64 {
	out := map[string]uint64{}
	v := reflect.ValueOf(l).Elem()
	for i := 0; i < v.NumField(); i++ {
		if n := v.Field(i).Addr().Interface().(*atomic.Uint64).Load(); n != 0 {
			out[v.Type().Field(i).Name] = n
		}
	}
	return out
}

// TestLedgerCountsEachKind pins the one map from event kind to counter:
// each counted kind bumps its own counter, a hole re-send is a fragment
// retransmission too, a SACK counts its blocks, every other kind counts
// nothing, and every counter is reached by some kind.
func TestLedgerCountsEachKind(t *testing.T) {
	want := map[EventKind]map[string]uint64{
		EvRetransmit:          {"Retransmissions": 1},
		EvPiggybackAck:        {"PiggybackedAcks": 1},
		EvPeerDead:            {"PeerDeadTimeouts": 1},
		EvWindowFill:          {"WindowFills": 1},
		EvCumAck:              {"CumulativeAcks": 1},
		EvFragRetransmit:      {"FragmentRetransmits": 1},
		EvSelectiveRetransmit: {"FragmentRetransmits": 1, "SelectiveRetransmits": 1},
		EvSackTx:              {"SackBlocksSent": 3},
		EvWindowIncrease:      {"WindowIncreases": 1},
		EvWindowDecrease:      {"WindowDecreases": 1},
	}
	reached := map[string]bool{}
	for kind := EvConnOpen; kind <= EvWindowDecrease; kind++ {
		var l Ledger
		l.count(kind, 3)
		got := ledgerValues(&l)
		if w := want[kind]; len(got) != len(w) || len(w) > 0 && !reflect.DeepEqual(got, w) {
			t.Errorf("%v counted %v, want %v", kind, got, w)
		}
		for name := range got {
			reached[name] = true
		}
	}
	lt := reflect.TypeOf(Ledger{})
	for i := 0; i < lt.NumField(); i++ {
		if name := lt.Field(i).Name; !reached[name] {
			t.Errorf("no event kind counts Ledger.%s", name)
		}
	}
}

// TestLedgerResetZeroesEveryField poisons every counter and checks Reset
// clears them all and that the ledger still counts afterwards.
func TestLedgerResetZeroesEveryField(t *testing.T) {
	var l Ledger
	v := reflect.ValueOf(&l).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).Addr().Interface().(*atomic.Uint64).Store(uint64(100 + i))
	}
	l.Reset()
	if got := ledgerValues(&l); len(got) != 0 {
		t.Fatalf("counters survived Reset: %v", got)
	}
	l.count(EvRetransmit, 0)
	if got := l.Retransmissions.Load(); got != 1 {
		t.Fatalf("Retransmissions = %d after Reset and one retransmit, want 1", got)
	}
}

// TestBareBusLeavesNodeCountersZero: the endpoints count their transport
// facts in their own ledgers, and the medium counts only what it carries,
// so a bare bus reads 0 in every field a ledger reports into.
func TestBareBusLeavesNodeCountersZero(t *testing.T) {
	r := newEventRig(t, 3, 0.3, []frame.MID{1, 2}, nil)
	for i := 0; i < 10; i++ {
		r.eps[1].Send(2, []byte{byte(i)}, nil, nil)
	}
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := r.eps[1].Ledger().Retransmissions.Load(); n == 0 || n != uint64(r.count(EvRetransmit)) {
		t.Fatalf("ledger counted %d retransmits, observer saw %d", n, r.count(EvRetransmit))
	}
	st := reflect.ValueOf(r.b.Stats())
	lt := reflect.TypeOf(Ledger{})
	for i := 0; i < lt.NumField(); i++ {
		name := lt.Field(i).Name
		if n := st.FieldByName(name).Uint(); n != 0 {
			t.Errorf("bus Stats.%s = %d, want 0: only the ledger counts it", name, n)
		}
	}
}
