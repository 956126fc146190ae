package fileserver

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"soda"
)

func runFS(t *testing.T, initial map[string][]byte, clients map[soda.MID]func(c *soda.Client), opts ...soda.Option) {
	t.Helper()
	nw := soda.NewNetwork(opts...)
	nw.Register("fs", Server(initial, 32))
	nw.MustAddNode(1)
	nw.MustBoot(1, "fs")
	mid := soda.MID(2)
	for cm, fn := range clients {
		fn := fn
		name := string(rune('a' + cm))
		nw.Register(name, soda.Program{Task: fn})
		nw.MustAddNode(cm)
		nw.MustBoot(cm, name)
		mid++
	}
	if err := nw.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestOpenWriteSeekRead(t *testing.T) {
	done := false
	runFS(t, nil, map[soda.MID]func(c *soda.Client){
		2: func(c *soda.Client) {
			srv, ok := Find(c)
			if !ok {
				t.Error("file server not found")
				return
			}
			f, err := Open(c, srv, "foo")
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			if err := f.Write([]byte("hello, soda file service")); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			if err := f.Seek(7); err != nil {
				t.Errorf("seek: %v", err)
				return
			}
			got, err := f.Read(4)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if string(got) != "soda" {
				t.Errorf("read = %q, want soda", got)
			}
			if err := f.Close(); err != nil {
				t.Errorf("close: %v", err)
				return
			}
			// After close the descriptor pattern is dead.
			if _, err := f.Read(4); err == nil {
				t.Error("read after close succeeded")
			}
			done = true
		},
	})
	if !done {
		t.Fatal("client never finished")
	}
}

// TestReadAfterCloseAtAnyKernelSpeed closes a descriptor and reads through
// it again with the kernel's transport costs scaled by 0 and by 4: CLOSE
// must retire the descriptor before it completes, whatever the relative
// speed of the ACCEPT and of the server's follow-up, so the read fails
// cleanly.
func TestReadAfterCloseAtAnyKernelSpeed(t *testing.T) {
	for _, scale := range []time.Duration{0, 4} {
		t.Run(fmt.Sprintf("x%d", scale), func(t *testing.T) {
			cfg := soda.DefaultNodeConfig()
			costs := &cfg.Transport.Costs
			costs.ProtocolPerFrame *= scale
			costs.ConnTimerPerFrame *= scale
			costs.RetransTimer *= scale
			costs.CopyPerByte *= scale
			done := false
			runFS(t, nil, map[soda.MID]func(c *soda.Client){
				2: func(c *soda.Client) {
					srv, ok := Find(c)
					if !ok {
						t.Error("file server not found")
						return
					}
					f, err := Open(c, srv, "foo")
					if err != nil {
						t.Errorf("open: %v", err)
						return
					}
					if err := f.Write([]byte("bar")); err != nil {
						t.Errorf("write: %v", err)
						return
					}
					if err := f.Close(); err != nil {
						t.Errorf("close: %v", err)
						return
					}
					if got, err := f.Read(4); err == nil {
						t.Errorf("read after close succeeded with %q", got)
					}
					done = true
				},
			}, soda.WithNodeConfig(cfg))
			if !done {
				t.Fatal("client never finished")
			}
		})
	}
}

func TestPreloadedFileAndSequentialReads(t *testing.T) {
	content := []byte("0123456789abcdef")
	done := false
	runFS(t, map[string][]byte{"data": content}, map[soda.MID]func(c *soda.Client){
		2: func(c *soda.Client) {
			srv, _ := Find(c)
			f, err := Open(c, srv, "data")
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			var got []byte
			for {
				chunk, err := f.Read(5)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if len(chunk) == 0 {
					break
				}
				got = append(got, chunk...)
			}
			if !bytes.Equal(got, content) {
				t.Errorf("sequential read = %q", got)
			}
			done = true
		},
	})
	if !done {
		t.Fatal("client never finished")
	}
}

func TestTwoClientsIndependentCursors(t *testing.T) {
	content := []byte("AAAABBBB")
	results := map[soda.MID]string{}
	mk := func(seek int) func(c *soda.Client) {
		return func(c *soda.Client) {
			srv, _ := Find(c)
			f, err := Open(c, srv, "shared")
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			if err := f.Seek(seek); err != nil {
				t.Errorf("seek: %v", err)
				return
			}
			got, err := f.Read(4)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			results[c.MID()] = string(got)
		}
	}
	runFS(t, map[string][]byte{"shared": content}, map[soda.MID]func(c *soda.Client){
		2: mk(0),
		3: mk(4),
	})
	if results[2] != "AAAA" || results[3] != "BBBB" {
		t.Fatalf("results = %v", results)
	}
}

func TestWriteVisibleToOtherClient(t *testing.T) {
	var got []byte
	runFS(t, nil, map[soda.MID]func(c *soda.Client){
		2: func(c *soda.Client) {
			srv, _ := Find(c)
			f, err := Open(c, srv, "log")
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			if err := f.Write([]byte("persisted")); err != nil {
				t.Errorf("write: %v", err)
			}
			f.Close()
		},
		3: func(c *soda.Client) {
			c.Hold(500 * time.Millisecond) // after the writer
			srv, _ := Find(c)
			f, err := Open(c, srv, "log")
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			got, err = f.Read(32)
			if err != nil {
				t.Errorf("read: %v", err)
			}
		},
	})
	if string(got) != "persisted" {
		t.Fatalf("second client read %q", got)
	}
}
