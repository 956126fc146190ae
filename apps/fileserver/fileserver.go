// Package fileserver implements the file service of §4.4.5.
//
// A client locates the server with DISCOVER, opens a file by EXCHANGEing
// its name on the well-known OPEN entry, and receives back a fresh pattern
// (from GETUNIQUEID) that names the open file: every subsequent
// transaction — READ, WRITE, SEEK, CLOSE — is an EXCHANGE on
// ⟨server, fd-pattern⟩ with the operation in the request argument. The
// server's handler queues operations; its task performs them in order.
package fileserver

import (
	"encoding/binary"
	"fmt"

	"soda"
	"soda/sodal"
)

// Well-known entry points (§4.4.5).
var (
	// ServicePattern locates the file server (the DISCOVER name).
	ServicePattern = soda.WellKnownPattern(0o3000)
	// OpenPattern opens a file.
	OpenPattern = soda.WellKnownPattern(0o3001)
)

// Operation kinds carried in the request argument.
const (
	OpRead int32 = iota + 1
	OpWrite
	OpSeek
	OpClose
)

// file is one open file: a handle onto the store plus a cursor.
type file struct {
	name   string
	patt   soda.Pattern
	offset int
}

// op is a queued file operation.
type op struct {
	asker soda.RequesterSig
	kind  int32
	f     *file
	// tag caches the arrival sizes for the deferred accept.
	putSize int
	getSize int
}

// srvState is the per-instance server state.
type srvState struct {
	store  map[string][]byte // the "disk"
	byPatt map[soda.Pattern]*file
	queue  *sodal.Queue[op]
}

// Server returns the file server program. initial seeds the store (may be
// nil); queueCap bounds pending operations.
func Server(initial map[string][]byte, queueCap int) soda.Program {
	if queueCap <= 0 {
		queueCap = 32
	}
	return soda.Program{
		Init: func(c *soda.Client, _ soda.MID) {
			st := &srvState{
				store:  make(map[string][]byte),
				byPatt: make(map[soda.Pattern]*file),
				queue:  sodal.NewQueue[op](queueCap),
			}
			for name, data := range initial {
				st.store[name] = append([]byte(nil), data...)
			}
			c.SetStash(st)
			if err := c.Advertise(ServicePattern); err != nil {
				panic(err)
			}
			if err := c.Advertise(OpenPattern); err != nil {
				panic(err)
			}
		},
		Handler: func(c *soda.Client, ev soda.Event) {
			if ev.Kind != soda.EventRequestArrival {
				return
			}
			st := c.Stash().(*srvState)
			switch {
			case ev.Pattern == ServicePattern:
				// Pure discovery probe; acknowledge.
				c.AcceptCurrentSignal(soda.OK)
			case ev.Pattern == OpenPattern:
				// OPEN is served directly in the handler (§4.4.5): bind
				// a fresh, slot-collision-free pattern to the file and
				// return it.
				fd, err := c.AdvertiseUnique()
				if err != nil {
					c.RejectCurrent()
					return
				}
				res := c.AcceptCurrentExchange(soda.OK, patternBytes(fd), ev.PutSize)
				if res.Status != soda.AcceptSuccess {
					_ = c.Unadvertise(fd)
					return
				}
				name := string(res.Data)
				if _, ok := st.store[name]; !ok {
					st.store[name] = nil // opening creates (§4.4.5 defers errors)
				}
				st.byPatt[fd] = &file{name: name, patt: fd}
			default:
				f, ok := st.byPatt[ev.Pattern]
				if !ok {
					c.RejectCurrent()
					return
				}
				queued := st.queue.EnQueue(op{
					asker:   ev.Asker,
					kind:    ev.Arg,
					f:       f,
					putSize: ev.PutSize,
					getSize: ev.GetSize,
				})
				if !queued {
					c.RejectCurrent()
				}
			}
		},
		Task: func(c *soda.Client) {
			st := c.Stash().(*srvState)
			for {
				c.WaitUntil(func() bool { return !st.queue.IsEmpty() })
				o := st.queue.MustDeQueue()
				perform(c, st, o)
			}
		},
	}
}

// perform executes one queued operation, completing the client's request.
func perform(c *soda.Client, st *srvState, o op) {
	f := o.f
	switch o.kind {
	case OpRead:
		data := st.store[f.name]
		start := min(f.offset, len(data))
		end := min(start+o.getSize, len(data))
		res := c.AcceptGet(o.asker, soda.OK, data[start:end])
		if res.Status == soda.AcceptSuccess {
			f.offset = end
		}
	case OpWrite:
		res := c.AcceptPut(o.asker, soda.OK, o.putSize)
		if res.Status != soda.AcceptSuccess {
			return
		}
		data := st.store[f.name]
		end := f.offset + len(res.Data)
		if end > len(data) {
			grown := make([]byte, end)
			copy(grown, data)
			data = grown
		}
		copy(data[f.offset:], res.Data)
		st.store[f.name] = data
		f.offset = end
	case OpSeek:
		res := c.AcceptPut(o.asker, soda.OK, o.putSize)
		if res.Status != soda.AcceptSuccess || len(res.Data) != 4 {
			return
		}
		f.offset = int(binary.BigEndian.Uint32(res.Data))
	case OpClose:
		// Retire the descriptor before the CLOSE completes: a requester
		// that has seen its close done must find the pattern gone, at
		// whatever speed the ACCEPT and this follow-up run.
		delete(st.byPatt, f.patt)
		_ = c.Unadvertise(f.patt)
		c.AcceptSignal(o.asker, soda.OK)
	default:
		c.Accept(o.asker, -1, nil, 0)
	}
}

func patternBytes(p soda.Pattern) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(p))
	return b
}

// File is a client-side handle onto a remote open file.
type File struct {
	c   *soda.Client
	srv soda.MID
	fd  soda.Pattern
}

// Error reports a failed file-service transaction.
type Error struct {
	Op     string
	Status soda.Status
}

func (e *Error) Error() string { return fmt.Sprintf("fileserver: %s: %v", e.Op, e.Status) }

// Find locates a file server with DISCOVER.
func Find(c *soda.Client) (soda.MID, bool) {
	sig, ok := c.Discover(ServicePattern)
	return sig.MID, ok
}

// Open opens (creating if needed) the named file.
func Open(c *soda.Client, srv soda.MID, name string) (*File, error) {
	res := c.BExchange(soda.ServerSig{MID: srv, Pattern: OpenPattern}, soda.OK, []byte(name), 8)
	if res.Status != soda.StatusSuccess || len(res.Data) != 8 {
		return nil, &Error{Op: "open " + name, Status: res.Status}
	}
	return &File{c: c, srv: srv, fd: soda.Pattern(binary.BigEndian.Uint64(res.Data))}, nil
}

// Read returns up to n bytes from the cursor.
func (f *File) Read(n int) ([]byte, error) {
	res := f.c.BExchange(soda.ServerSig{MID: f.srv, Pattern: f.fd}, OpRead, nil, n)
	if res.Status != soda.StatusSuccess {
		return nil, &Error{Op: "read", Status: res.Status}
	}
	return res.Data, nil
}

// Write stores data at the cursor, advancing it.
func (f *File) Write(data []byte) error {
	res := f.c.BExchange(soda.ServerSig{MID: f.srv, Pattern: f.fd}, OpWrite, data, 0)
	if res.Status != soda.StatusSuccess {
		return &Error{Op: "write", Status: res.Status}
	}
	return nil
}

// Seek positions the cursor absolutely.
func (f *File) Seek(offset int) error {
	b := make([]byte, 4)
	binary.BigEndian.PutUint32(b, uint32(offset))
	res := f.c.BExchange(soda.ServerSig{MID: f.srv, Pattern: f.fd}, OpSeek, b, 0)
	if res.Status != soda.StatusSuccess {
		return &Error{Op: "seek", Status: res.Status}
	}
	return nil
}

// Close releases the descriptor pattern.
func (f *File) Close() error {
	res := f.c.BExchange(soda.ServerSig{MID: f.srv, Pattern: f.fd}, OpClose, nil, 0)
	if res.Status != soda.StatusSuccess {
		return &Error{Op: "close", Status: res.Status}
	}
	return nil
}
