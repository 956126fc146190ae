package deltat

import (
	"testing"

	"soda/internal/frame"
)

// TestEndpointAccessors pins the read-only surface the bench harness and
// observers consume: machine id, configuration echo, and the cost buckets
// with their measurement-window reset.
func TestEndpointAccessors(t *testing.T) {
	r := newRig(t, 7, 0, []frame.MID{1, 2}, nil)
	ep := r.eps[1]
	if ep.MID() != 1 {
		t.Fatalf("MID() = %d, want 1", ep.MID())
	}
	if got, want := ep.Config().RetransInterval, DefaultConfig().RetransInterval; got != want {
		t.Fatalf("Config().RetransInterval = %v, want %v", got, want)
	}
	ep.Send(2, []byte("ping"), nil, func(Result) {})
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tot := ep.Totals()
	if tot.FramesSent == 0 || tot.Protocol == 0 {
		t.Fatalf("Totals after an exchange = %+v, want nonzero frames and protocol time", tot)
	}
	ep.ResetTotals()
	if got := ep.Totals(); got != (CostTotals{}) {
		t.Fatalf("Totals after reset = %+v, want zero", got)
	}
}

// TestEnumStrings pins the observer-facing names of every event kind and
// recovery mode; trace consumers key on these strings.
func TestEnumStrings(t *testing.T) {
	wantKinds := map[EventKind]string{
		EvConnOpen:            "CONN_OPEN",
		EvConnExpire:          "CONN_EXPIRE",
		EvConnClose:           "CONN_CLOSE",
		EvRetransmit:          "RETRANSMIT",
		EvAckTx:               "ACK_TX",
		EvAckRx:               "ACK_RX",
		EvPiggybackAck:        "PIGGYBACK_ACK",
		EvPeerDead:            "PEER_DEAD",
		EvBusyRetry:           "BUSY_RETRY",
		EvWindowFill:          "WINDOW_FILL",
		EvCumAck:              "CUM_ACK",
		EvFragRetransmit:      "FRAG_RETRANSMIT",
		EvSelectiveRetransmit: "SEL_RETRANSMIT",
		EvSackTx:              "SACK_TX",
		EvWindowIncrease:      "WINDOW_INC",
		EvWindowDecrease:      "WINDOW_DEC",
		EventKind(0):          "EV(?)",
	}
	for k, want := range wantKinds {
		if got := k.String(); got != want {
			t.Errorf("EventKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
