package soda_test

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"soda"
	"soda/internal/deltat"
	"soda/obs"
)

// The node ledger contract (DESIGN.md §7): each Delta-t endpoint counts its
// transport facts in its own deltat.Ledger and each kernel counts its
// pattern-table rejections; Network.Stats sums them into the bus.Stats
// fields of the same names on every backend, and Network.ResetStats zeroes
// them with everything else.

// ledgerFields lists deltat.Ledger's field names; each names a BusStats
// field.
func ledgerFields() []string {
	lt := reflect.TypeOf(deltat.Ledger{})
	names := make([]string, lt.NumField())
	for i := range names {
		names[i] = lt.Field(i).Name
	}
	return names
}

// ledgerField returns the counter named name in n's transport ledger.
func ledgerField(n *soda.Node, name string) *atomic.Uint64 {
	return reflect.ValueOf(n.TransportLedger()).Elem().FieldByName(name).Addr().Interface().(*atomic.Uint64)
}

// statsField reads the BusStats field named name.
func statsField(st soda.BusStats, name string) uint64 {
	return reflect.ValueOf(st).FieldByName(name).Uint()
}

// TestStatsSumsAndResetsEveryLedgerField poisons every ledger counter, and
// the pattern-table counter, of several nodes with distinct values, then
// checks that Stats reports each field as the sum over the nodes and that
// ResetStats zeroes every one — on a flat bus, on segments and on sockets.
func TestStatsSumsAndResetsEveryLedgerField(t *testing.T) {
	backends := []struct {
		name string
		opts []soda.Option
	}{
		{"flat", nil},
		{"segments", []soda.Option{soda.WithTopology(soda.Topology{Segments: 3})}},
		{"socket", []soda.Option{soda.WithSocketTransport("127.0.0.1:0")}},
	}
	mids := []soda.MID{1, 2, 3, 4, 5}
	fields := append(ledgerFields(), "PatternTableFull")
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			if b.name == "socket" && testing.Short() {
				t.Skip("opens a real socket")
			}
			nw := soda.NewNetwork(b.opts...)
			defer nw.Close()
			want := map[string]uint64{}
			for i, mid := range mids {
				n := nw.MustAddNode(mid)
				for j, name := range fields {
					v := uint64(1000*(i+1) + j)
					if name == "PatternTableFull" {
						n.PatternTableFull().Store(v)
					} else {
						ledgerField(n, name).Store(v)
					}
					want[name] += v
				}
			}
			st := nw.Stats()
			for _, name := range fields {
				if got := statsField(st, name); got != want[name] {
					t.Errorf("Stats.%s = %d, want the nodes' sum %d", name, got, want[name])
				}
			}
			nw.ResetStats()
			st = nw.Stats()
			for _, name := range fields {
				if got := statsField(st, name); got != 0 {
					t.Errorf("Stats.%s = %d after ResetStats, want 0", name, got)
				}
			}
		})
	}
}

// checkRegistryParity compares each node's obs.Registry transport counters
// with its ledger, and Stats with the ledgers' sum, which it returns by
// field name. The registry counts SACK-carrying frames and the ledger SACK
// blocks, so those two only agree on whether any were sent.
func checkRegistryParity(t *testing.T, nw *soda.Network, reg *obs.Registry, mids ...soda.MID) map[string]uint64 {
	t.Helper()
	sum := map[string]uint64{}
	for _, mid := range mids {
		nc, n := reg.Node(mid), nw.Node(mid)
		registry := map[string]uint64{
			"Retransmissions":      nc.Retransmits,
			"PiggybackedAcks":      nc.PiggybackAcks,
			"PeerDeadTimeouts":     nc.PeerDeadTimeouts,
			"WindowFills":          nc.WindowFills,
			"CumulativeAcks":       nc.CumulativeAcks,
			"FragmentRetransmits":  nc.FragRetransmits,
			"SelectiveRetransmits": nc.SelectiveRetransmits,
			"SackBlocksSent":       nc.SackAcks,
			"WindowIncreases":      nc.WindowIncreases,
			"WindowDecreases":      nc.WindowDecreases,
		}
		for _, name := range ledgerFields() {
			want, ok := registry[name]
			if !ok {
				t.Fatalf("the parity check has no registry counter for Ledger.%s", name)
			}
			got := ledgerField(n, name).Load()
			sum[name] += got
			if name == "SackBlocksSent" {
				if want > got || (want == 0) != (got == 0) {
					t.Errorf("node %d: registry saw %d SACK frames, ledger counted %d blocks", mid, want, got)
				}
			} else if got != want {
				t.Errorf("node %d %s: registry %d, ledger %d", mid, name, want, got)
			}
		}
	}
	st := nw.Stats()
	for _, name := range ledgerFields() {
		if got := statsField(st, name); got != sum[name] {
			t.Errorf("Stats.%s = %d, ledgers sum to %d", name, got, sum[name])
		}
	}
	return sum
}

// TestRegistryMatchesLedger runs a lossy windowed bulk transfer and a lossy
// stop-and-wait exchange on the sim, and an exchange between two socket
// networks, each with an obs.Registry subscribed: every node's registry
// counters must equal its ledger.
func TestRegistryMatchesLedger(t *testing.T) {
	t.Run("windowed_lossy", func(t *testing.T) {
		reg := obs.NewRegistry()
		done := 0
		nw := soda.NewNetwork(soda.WithSeed(3), soda.WithPipelined(true), soda.WithTransportWindow(bulkWindow),
			soda.WithLoss(0.05), soda.WithMetrics(reg))
		defer nw.Close()
		registerBulk(nw, 40, &done)
		nw.MustAddNode(1)
		nw.MustAddNode(2)
		nw.MustBoot(1, "server")
		nw.MustBoot(2, "client")
		_ = nw.RunToCompletion() // ends with the server parked
		sum := checkRegistryParity(t, nw, reg, 1, 2)
		if sum["FragmentRetransmits"] == 0 || sum["SackBlocksSent"] == 0 || sum["CumulativeAcks"] == 0 {
			t.Fatal("the lossy windowed run did no recovery work: the parity shows nothing")
		}
	})
	t.Run("stop_and_wait_lossy", func(t *testing.T) {
		reg := obs.NewRegistry()
		var last soda.CallResult
		nw := soda.NewNetwork(soda.WithSeed(3), soda.WithLoss(0.1), soda.WithMetrics(reg))
		defer nw.Close()
		registerEcho(nw, 60, &last, nil)
		nw.MustAddNode(1)
		nw.MustAddNode(2)
		nw.MustBoot(1, "server")
		nw.MustBoot(2, "client")
		_ = nw.RunToCompletion()
		sum := checkRegistryParity(t, nw, reg, 1, 2)
		if sum["Retransmissions"] == 0 || sum["PiggybackedAcks"] == 0 {
			t.Fatal("the lossy stop-and-wait run neither retransmitted nor piggybacked: the parity shows nothing")
		}
	})
	t.Run("socket", func(t *testing.T) {
		if testing.Short() {
			t.Skip("opens real sockets")
		}
		srvReg, cliReg := obs.NewRegistry(), obs.NewRegistry()
		srv, cli, finished := socketEchoPair(t, 30,
			[]soda.Option{soda.WithMetrics(srvReg)}, []soda.Option{soda.WithMetrics(cliReg)})
		cli.WaitSocket(time.Minute)
		// Both drivers stop before the registries are read.
		for _, nw := range []*soda.Network{cli, srv} {
			if err := nw.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if !*finished {
			t.Fatal("the client did not finish its round trips")
		}
		piggy := checkRegistryParity(t, srv, srvReg, 1)["PiggybackedAcks"] +
			checkRegistryParity(t, cli, cliReg, 2)["PiggybackedAcks"]
		if piggy == 0 {
			t.Fatal("no socket node counted a piggybacked acknowledgement: the parity shows nothing")
		}
	})
}

// socketEchoPair starts a server network and a client network on host
// loopback TCP; the client runs rounds echo exchanges and then sets
// *finished. srvOpts and cliOpts are added to each network's options.
func socketEchoPair(t *testing.T, rounds int, srvOpts, cliOpts []soda.Option) (srv, cli *soda.Network, finished *bool) {
	t.Helper()
	srv = soda.NewNetwork(append(srvOpts, soda.WithSeed(1), soda.WithSocketTransport("127.0.0.1:0"))...)
	cli = soda.NewNetwork(append(cliOpts, soda.WithSeed(2), soda.WithSocketTransport("127.0.0.1:0"))...)
	srv.SetSocketPeer(2, cli.SocketAddr())
	cli.SetSocketPeer(1, srv.SocketAddr())
	finished = new(bool)
	var last soda.CallResult
	registerEcho(srv, 0, nil, nil)
	registerEcho(cli, rounds, &last, func(done int) { *finished = done == rounds })
	srv.MustAddNode(1)
	srv.MustBoot(1, "server")
	cli.MustAddNode(2)
	cli.MustBoot(2, "client")
	srv.StartSocket(nil)
	cli.StartSocket(func() bool { return *finished })
	return srv, cli, finished
}

// TestSocketStatsWhileDriving calls Stats and ResetStats on both socket
// networks from the test goroutine while their drivers exchange frames, as
// the benchmark's socket workload does; run it under -race.
func TestSocketStatsWhileDriving(t *testing.T) {
	if testing.Short() {
		t.Skip("opens real sockets")
	}
	srv, cli, finished := socketEchoPair(t, 200, nil, nil)
	counted := false
	for polls := 0; !cli.WaitSocket(time.Millisecond); polls++ {
		if polls == 60_000 {
			t.Fatal("the client did not finish its round trips within a minute of polls")
		}
		for _, nw := range []*soda.Network{srv, cli} {
			if nw.Stats().PiggybackedAcks > 0 {
				counted = true
			}
			nw.ResetStats()
		}
	}
	for _, nw := range []*soda.Network{cli, srv} {
		if err := nw.Close(); err != nil {
			t.Error(err)
		}
	}
	if !*finished {
		t.Fatal("the client did not finish its round trips")
	}
	if !counted {
		t.Error("Stats never reported a piggybacked acknowledgement while the networks ran")
	}
}
