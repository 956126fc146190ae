package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"soda"
	"soda/apps/fileserver"
)

// ncfg carries the -net tcp flags into runSocket.
var ncfg struct {
	net    string
	role   string
	listen string
	peers  string
}

// parsePeers decodes a "mid=host:port,mid=host:port" peer map.
func parsePeers(s string) (map[soda.MID]string, error) {
	peers := make(map[soda.MID]string)
	if s == "" {
		return peers, nil
	}
	for _, part := range strings.Split(s, ",") {
		mid, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad -peers entry %q (want mid=host:port)", part)
		}
		id, err := strconv.ParseUint(mid, 10, 16)
		if err != nil {
			return nil, fmt.Errorf("bad -peers MID %q: %v", mid, err)
		}
		peers[soda.MID(id)] = addr
	}
	return peers, nil
}

// runSocket runs one machine of a scenario over real localhost TCP. Only
// the fileserver scenario is wired for sockets: role fs is machine 1 (the
// file service), role client is machine 2 (DISCOVER, then a REQUEST/ACCEPT
// session). Fault injection, topologies and parallel simulation are
// meaningless on a real wire and are rejected.
func runSocket(scenario string, seed int64, d time.Duration) error {
	switch {
	case fcfg.loss > 0 || fcfg.corrupt > 0 || fcfg.duplicate > 0 || fcfg.planFile != "" || fcfg.chaos:
		return fmt.Errorf("-net tcp does not take fault flags (the real wire provides its own faults)")
	case pcfg.segments > 1 || pcfg.parworkers > 1:
		return fmt.Errorf("-net tcp does not take -segments/-parworkers")
	case scenario != "fileserver":
		return fmt.Errorf("scenario %q has no socket roles (use -scenario fileserver with -role fs|client)", scenario)
	}
	peers, err := parsePeers(ncfg.peers)
	if err != nil {
		return err
	}
	nw := soda.NewNetwork(
		soda.WithSeed(seed),
		soda.WithSocketTransport(ncfg.listen),
		soda.WithSocketPeers(peers),
	)
	if traceAll {
		nw.Trace(os.Stdout)
	}
	switch ncfg.role {
	case "fs":
		nw.Register("fs", fileserver.Server(map[string][]byte{
			"motd": []byte("welcome to the SODA file service"),
		}, 32))
		nw.MustAddNode(1)
		nw.MustBoot(1, "fs")
		fmt.Printf("fs: machine 1 listening on %s; serving for %v\n", nw.SocketAddr(), d)
		nw.StartSocket(nil)
		// Serve until the client side has been quiet for a second, or the
		// duration cap elapses — whichever is first.
		if nw.WaitSocketIdle(time.Second, d) {
			fmt.Println("fs: network idle; shutting down")
		} else {
			fmt.Println("fs: duration elapsed; shutting down")
		}
	case "client":
		done := false
		nw.Register("client", soda.Program{
			Task: func(c *soda.Client) {
				defer func() { done = true }()
				srv, ok := fileserver.Find(c)
				if !ok {
					fmt.Println("client: no file server found")
					return
				}
				fmt.Printf("client: discovered file server on machine %d\n", srv)
				f, err := fileserver.Open(c, srv, "motd")
				if err != nil {
					fmt.Println("client: open:", err)
					return
				}
				data, _ := f.Read(64)
				fmt.Printf("client: read %q\n", data)
				g, _ := fileserver.Open(c, srv, "journal")
				_ = g.Write([]byte("first entry over TCP"))
				_ = g.Seek(0)
				back, _ := g.Read(64)
				fmt.Printf("client: wrote and re-read %q\n", back)
				_ = g.Close()
				_ = f.Close()
				fmt.Println("client: session closed")
			},
		})
		nw.MustAddNode(2)
		nw.MustBoot(2, "client")
		fmt.Printf("client: machine 2 listening on %s\n", nw.SocketAddr())
		nw.StartSocket(func() bool { return done })
		if !nw.WaitSocket(d) {
			nw.Close()
			return fmt.Errorf("client did not finish within %v", d)
		}
	default:
		return fmt.Errorf("unknown -role %q for the fileserver scenario (want fs or client)", ncfg.role)
	}
	if err := nw.Close(); err != nil {
		return fmt.Errorf("socket shutdown leaked: %v", err)
	}
	return nil
}
