package frame

import (
	"encoding/binary"
	"fmt"
)

// TransportKind discriminates frames at the Delta-t transport level
// (§5.2.2–5.2.3).
type TransportKind uint8

const (
	// TransportData carries an encoded kernel message reliably: it is
	// retransmitted until acknowledged. A DATA frame may additionally
	// piggyback an acknowledgement for the reverse direction (AckPresent)
	// — this is how ACCEPT+DATA acknowledges the REQUEST it completes,
	// and how a new REQUEST acknowledges the previous reply's data
	// (§5.2.3).
	TransportData TransportKind = iota + 1
	// TransportAck acknowledges a DATA frame; it may piggyback an
	// encoded kernel message in its payload (e.g. ACCEPT+ACK for a PUT).
	TransportAck
	// TransportNack is a negative acknowledgement: BUSY (the server
	// handler is unavailable; retry later) or an error code.
	TransportNack
	// TransportDatagram is an unreliable one-shot frame: no sequence
	// numbers, no acknowledgement, no retransmission. DISCOVER queries
	// and their staggered replies use datagrams; SODA makes no
	// reliability guarantees about DISCOVER (§3.4.4).
	TransportDatagram
	// TransportFrag is one fragment of a reliable message under the
	// opt-in sliding-window transport mode (Config.Window > 1). Seq
	// numbers the fragment in the per-link frame stream (acknowledged
	// cumulatively); MsgSeq/FragIndex locate it within its message, and
	// FragEnd marks the message's last fragment. A FRAG may piggyback a
	// cumulative frame acknowledgement for the reverse direction
	// (AckPresent/AckSeq). The window=1 transport never emits this kind.
	TransportFrag
	// TransportFragAck is a standalone cumulative fragment
	// acknowledgement: Seq is the highest frame sequence number received
	// in order. It advances the sender's window but completes no message
	// (message completion is signalled by TransportAck on the message
	// sequence number). Under selective repeat it may additionally carry
	// a SACK bitmap (SackBits) reporting fragments received out of order
	// beyond the cumulative point, so the sender retransmits only the
	// holes. Window=1 never emits this kind.
	TransportFragAck
)

func (k TransportKind) String() string {
	switch k {
	case TransportData:
		return "DATA"
	case TransportAck:
		return "ACK"
	case TransportNack:
		return "NACK"
	case TransportDatagram:
		return "DGRAM"
	case TransportFrag:
		return "FRAG"
	case TransportFragAck:
		return "FRAGACK"
	default:
		return fmt.Sprintf("transport(%d)", uint8(k))
	}
}

// NackBusy is the Err value of a BUSY NACK: the destination handler was
// unavailable and the frame should be retransmitted later at a reduced rate
// (§5.2.3). Error NACKs carry one of the ErrCode values instead.
const NackBusy ErrCode = 0xFF

// TransportFrame is the unit transmitted on the bus. Every frame carries
// the sender's view of the connection state so the receiver can discard
// duplicates; the ConnOpen bit prevents a frame from appearing to contain a
// piggybacked ACK when no connection is active (§5.2.3).
type TransportFrame struct {
	Kind     TransportKind
	Src      MID
	Dst      MID // BroadcastMID addresses every kernel
	Seq      uint8
	ConnOpen bool
	// AckPresent marks a DATA frame that also acknowledges the peer's
	// outstanding DATA with sequence AckSeq (piggybacked ACK). On a FRAG
	// frame it instead carries a cumulative frame acknowledgement for
	// the reverse direction's fragment stream.
	AckPresent bool
	AckSeq     uint8
	Err        ErrCode // NACK discriminator; NackBusy or an ErrCode

	// Fragment header extension, meaningful only for TransportFrag
	// (zero and unencoded for every other kind). MsgSeq numbers the
	// message the fragment belongs to, FragIndex the fragment within it,
	// and FragEnd marks the message's last fragment. Urgent mirrors the
	// sender's reply priority so the receiver can let a kernel reply
	// overtake a busy-rejected request (§5.2.2's no-deadlock rule).
	MsgSeq    uint8
	FragIndex uint8
	FragEnd   bool
	Urgent    bool

	// SackBits is the selective-acknowledgement bitmap, meaningful only
	// for TransportFragAck (zero and unencoded for every other kind, and
	// for plain cumulative FRAGACKs). Bit i set means frame sequence
	// Seq+2+i has been received out of order; Seq+1 is by definition the
	// first hole, so it never needs a bit. The bitmap spans 64 sequence
	// numbers — exactly the transport's maximum fragment inflight — and
	// is appended to the header only when nonzero (flagSack), keeping old
	// cumulative-only FRAGACKs byte-identical on the wire.
	SackBits uint64

	Payload []byte
}

// transportHeaderSize is the fixed on-wire header length: kind(1) src(2)
// dst(2) seq(1) flags(1) ackseq(1) err(1) paylen(4) + crc-equivalent pad(3).
// The three pad bytes stand in for the Megalink's CRC and sync overhead so
// frame timing is comparable to the thesis's hardware.
const transportHeaderSize = 16

// fragExtSize is the fragment header extension appended to the fixed
// header on TransportFrag frames: msgseq(1) fragindex(1).
const fragExtSize = 2

// sackExtSize is the selective-acknowledgement extension appended to the
// fixed header on TransportFragAck frames whose SackBits are nonzero:
// a big-endian 64-bit bitmap.
const sackExtSize = 8

// WireSize is the encoded frame length in bytes; it drives the bus
// transmission-time model.
func (f *TransportFrame) WireSize() int {
	n := transportHeaderSize + len(f.Payload)
	if f.Kind == TransportFrag {
		n += fragExtSize
	}
	if f.Kind == TransportFragAck && f.SackBits != 0 {
		n += sackExtSize
	}
	return n
}

const (
	flagConnOpen   = 1 << 0
	flagAckPresent = 1 << 1
	flagFragEnd    = 1 << 2
	flagUrgent     = 1 << 3
	flagSack       = 1 << 4
)

// EncodeTransport serializes a transport frame.
//
//lint:hotpath
func EncodeTransport(f *TransportFrame) []byte {
	//lint:allow noalloc (counted: one exact-size wire buffer per transmitted frame)
	return AppendTransport(make([]byte, 0, f.WireSize()), f)
}

// AppendTransport appends the encoding of f to dst and returns the extended
// slice, for callers that manage their own buffers. Note that a buffer
// handed to Iface.Send must not be reused while deliveries are in flight:
// the bus shares the sender's bytes with every receiver.
//
//lint:hotpath
func AppendTransport(dst []byte, f *TransportFrame) []byte {
	dst = append(dst, byte(f.Kind))
	dst = binary.BigEndian.AppendUint16(dst, uint16(f.Src))
	dst = binary.BigEndian.AppendUint16(dst, uint16(f.Dst))
	var flags byte
	if f.ConnOpen {
		flags |= flagConnOpen
	}
	if f.AckPresent {
		flags |= flagAckPresent
	}
	if f.Kind == TransportFrag {
		if f.FragEnd {
			flags |= flagFragEnd
		}
		if f.Urgent {
			flags |= flagUrgent
		}
	}
	sack := f.Kind == TransportFragAck && f.SackBits != 0
	if sack {
		flags |= flagSack
	}
	dst = append(dst, f.Seq, flags, f.AckSeq, byte(f.Err))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.Payload)))
	dst = append(dst, 0, 0, 0) // CRC/sync stand-in
	if f.Kind == TransportFrag {
		dst = append(dst, f.MsgSeq, f.FragIndex)
	}
	if sack {
		dst = binary.BigEndian.AppendUint64(dst, f.SackBits)
	}
	return append(dst, f.Payload...)
}

// DecodeTransportShared parses a frame produced by EncodeTransport. It
// does not copy the payload: the returned frame's Payload aliases b, which
// is safe because the wire buffer is immutable by contract (the bus shares
// one buffer among all receivers and observers). Callers must treat
// Payload as read-only and must not retain it past the buffer's lifetime.
func DecodeTransportShared(b []byte) (*TransportFrame, error) {
	f := new(TransportFrame)
	if err := DecodeTransportInto(f, b); err != nil {
		return nil, err
	}
	return f, nil
}

// CheckTransport reports the error DecodeTransportShared would return for b
// without building a frame, for observers that judge the wire bytes but
// keep nothing of them.
//
//lint:hotpath
func CheckTransport(b []byte) error {
	var f TransportFrame
	return DecodeTransportInto(&f, b)
}

// DecodeTransportInto is DecodeTransportShared into storage the caller
// owns: it overwrites all of f, whose Payload then aliases b. The receive
// hot path decodes into its pending-receive record this way.
//
//lint:hotpath
func DecodeTransportInto(f *TransportFrame, b []byte) error {
	if len(b) < transportHeaderSize {
		return ErrShortFrame
	}
	flags := b[6]
	*f = TransportFrame{
		Kind:       TransportKind(b[0]),
		Src:        MID(binary.BigEndian.Uint16(b[1:3])),
		Dst:        MID(binary.BigEndian.Uint16(b[3:5])),
		Seq:        b[5],
		ConnOpen:   flags&flagConnOpen != 0,
		AckPresent: flags&flagAckPresent != 0,
		AckSeq:     b[7],
		Err:        ErrCode(b[8]),
	}
	switch f.Kind {
	case TransportData, TransportAck, TransportNack, TransportDatagram,
		TransportFrag, TransportFragAck:
	default:
		//lint:allow noalloc (cold: malformed-frame error path)
		return fmt.Errorf("%w: transport kind %d", ErrUnknownKind, b[0])
	}
	hdr := transportHeaderSize
	if f.Kind == TransportFrag {
		hdr += fragExtSize
		if len(b) < hdr {
			return ErrShortFrame
		}
		f.FragEnd = flags&flagFragEnd != 0
		f.Urgent = flags&flagUrgent != 0
		f.MsgSeq = b[transportHeaderSize]
		f.FragIndex = b[transportHeaderSize+1]
	}
	if flags&flagSack != 0 {
		// The SACK extension is canonical: only FRAGACKs carry it, and
		// only with a nonzero bitmap (a zero bitmap encodes as a plain
		// cumulative ack with the flag clear).
		if f.Kind != TransportFragAck {
			//lint:allow noalloc (cold: malformed-frame error path)
			return fmt.Errorf("%w: sack flag on %s frame", ErrUnknownKind, f.Kind)
		}
		if len(b) < hdr+sackExtSize {
			return ErrShortFrame
		}
		f.SackBits = binary.BigEndian.Uint64(b[hdr : hdr+sackExtSize])
		if f.SackBits == 0 {
			//lint:allow noalloc (cold: malformed-frame error path)
			return fmt.Errorf("%w: sack flag with empty bitmap", ErrUnknownKind)
		}
		hdr += sackExtSize
	}
	n := binary.BigEndian.Uint32(b[9:13])
	if uint32(len(b)-hdr) != n {
		return ErrShortFrame
	}
	if n > 0 {
		f.Payload = b[hdr : hdr+int(n) : hdr+int(n)]
	}
	return nil
}
