// Wire protocol v2: the framing shared by Client and Server.
//
// A connection opens with a 4-byte hello (helloMagic); the server closes
// any connection that opens with anything else.
//
// v2 request frame (little-endian):
//
//	[op u8][pkey u32][tag u64][nsegs u16]
//	then nsegs × [off u64][len u32]
//	then, for WRITE/WRITEV, the payloads in segment order.
//
// v2 batch frame — a doorbell: one header, many sub-operations, one flush
// (the wire twin of fabric.QP.Submit):
//
//	[OpBatch u8][pkey u32][tag0 u64][nsub u16]
//	then nsub × { [op u8][nsegs u16][segs...][write payloads...] }
//
// sub-op k answers under tag0+k. Sub-ops are restricted to
// READ/WRITE/READV/WRITEV/PING.
//
// v2 response frame:
//
//	[tag u64][status u8]
//	then, only when status is OK: READ/READV payloads in segment order,
//	[off u64] for ALLOC, [size u64][inUse u64] for INFO.
//
// Responses carry the request's tag and may complete OUT OF ORDER: the
// server executes a connection's requests on a small worker pool, so two
// in-flight operations touching the same bytes have no ordering guarantee
// (exactly like one-sided RDMA). Callers must not overlap conflicting
// operations; the paging stack and the ext9 driver never do.

package transport

import "time"

// helloMagic opens every connection.
var helloMagic = [4]byte{0xD2, 'M', 'N', '2'}

// Op codes.
const (
	OpRead   = 1
	OpWrite  = 2
	OpReadV  = 3
	OpWriteV = 4
	OpAlloc  = 5
	OpInfo   = 6
	OpPing   = 7 // health probe: returns the server's serving/draining state
	OpBatch  = 8 // doorbell frame carrying sub-operations
)

// Status codes.
const (
	StatusOK       = 0
	StatusBadKey   = 1
	StatusBadOp    = 2
	StatusBounds   = 3
	StatusNoSpace  = 4
	StatusDraining = 5 // server is shutting down gracefully; go elsewhere
	StatusTooBig   = 6 // segment or payload exceeds the per-request caps
)

// Protocol limits. They bound per-connection server memory: a connection
// can hold at most serverInflight parsed requests of at most MaxReqBytes
// each; anything larger is drained off the stream and answered with a
// status byte, never buffered.
const (
	// MaxSegs bounds vectored requests (mirrors the fabric's practical cap).
	MaxSegs = 64
	// MaxSegLen bounds one segment's length.
	MaxSegLen = 1 << 20
	// MaxReqBytes bounds one request's total payload.
	MaxReqBytes = 8 << 20
	// MaxBatchOps bounds the sub-operations of one doorbell frame.
	MaxBatchOps = 64
)

// v2 fixed header sizes.
const (
	reqHdrLen  = 1 + 4 + 8 + 2 // op, pkey, tag, nsegs
	respHdrLen = 8 + 1         // tag, status
	segHdrLen  = 8 + 4         // off, len
	subHdrLen  = 1 + 2         // op, nsegs
)

// Seg is one segment of a vectored request.
type Seg struct {
	Off uint64
	Len uint32
}

// segsBytes sums the segment lengths.
func segsBytes(segs []Seg) int {
	n := 0
	for _, sg := range segs {
		n += int(sg.Len)
	}
	return n
}

// respPayloadLen gives the response payload size for an OK status.
func respPayloadLen(op byte, segs []Seg) int {
	switch op {
	case OpRead, OpReadV:
		return segsBytes(segs)
	case OpAlloc:
		return 8
	case OpInfo:
		return 16
	}
	return 0
}

// Client defaults. They are generous for a LAN; tests and latency-sensitive
// callers tighten the deadline and the redial cap with options.
const (
	DefaultDialTimeout = 2 * time.Second
	// DefaultDeadline is the per-request budget: dialing, retries and
	// resends all happen inside it, and when it expires the request fails
	// with a bounded error instead of blocking.
	DefaultDeadline   = 2 * time.Second
	DefaultRedials    = 3
	redialBackoffBase = 25 * time.Millisecond
	redialBackoffCap  = 500 * time.Millisecond
)
