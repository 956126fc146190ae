package netx

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Stream framing for transport frames over a byte stream: a 4-byte
// big-endian length prefix followed by exactly that many bytes of one
// encoded transport frame. TCP preserves the frame codec's bytes verbatim;
// the prefix only restores the record boundaries the simulated bus gets
// for free.

const (
	// minFrameLen is the fixed transport header size — nothing shorter can
	// decode, so a shorter prefix is a framing error, not a short frame.
	minFrameLen = 16
	// MaxFrameLen caps a declared frame length. The transport's payloads
	// are bounded well under this; a larger prefix means a corrupt or
	// hostile stream and must not turn into a giant allocation.
	MaxFrameLen = 1 << 20
)

// framingError reports a malformed stream: the reader must drop the
// connection (record boundaries are unrecoverable once the prefix lies).
type framingError struct{ msg string }

func (e *framingError) Error() string { return "netx: bad frame stream: " + e.msg }

// IsFramingError reports whether err marks a malformed frame stream (as
// opposed to plain EOF or a transport error).
func IsFramingError(err error) bool {
	_, ok := err.(*framingError)
	return ok
}

// AppendFrame appends raw's length-prefixed stream encoding to dst. The
// caller keeps raw within MaxFrameLen, which is all a reader accepts.
func AppendFrame(dst, raw []byte) []byte {
	return append(binary.BigEndian.AppendUint32(dst, uint32(len(raw))), raw...)
}

// ReadFrame reads one length-prefixed frame from r, rejecting declared
// lengths below the transport header size or above max (MaxFrameLen when
// max <= 0). A truncated prefix at a clean stream boundary returns io.EOF;
// truncation mid-prefix or mid-frame returns io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	if max <= 0 {
		max = MaxFrameLen
	}
	n, err := readPrefix(r)
	if err != nil {
		return nil, err
	}
	if n < minFrameLen {
		return nil, &framingError{fmt.Sprintf("declared length %d below transport header size %d", n, minFrameLen)}
	}
	if n > uint32(max) {
		return nil, &framingError{fmt.Sprintf("declared length %d exceeds cap %d", n, max)}
	}
	raw := make([]byte, n)
	if _, err := io.ReadFull(r, raw); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return raw, nil
}

// readPrefix reads a frame's 4-byte length prefix with io.ReadFull's EOF
// rules. A reader that reads by the byte, as the connection's bufio.Reader
// does, fills it without allocating; through a plain io.Reader the prefix
// array escapes to the heap, one small allocation per frame.
func readPrefix(r io.Reader) (uint32, error) {
	br, ok := r.(io.ByteReader)
	if !ok {
		var pfx [4]byte
		if _, err := io.ReadFull(r, pfx[:]); err != nil {
			return 0, err
		}
		return binary.BigEndian.Uint32(pfx[:]), nil
	}
	var n uint32
	for i := 0; i < 4; i++ {
		b, err := br.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		n = n<<8 | uint32(b)
	}
	return n, nil
}
