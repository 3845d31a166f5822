// Package transport implements a real (non-simulated) wire protocol for a
// remote memory node over TCP: the one-sided READ/WRITE/vectored-op
// service a DiLOS computing node needs, runnable today on any pair of
// hosts (cmd/memnoded serves it; Client speaks it). The simulator's fabric
// models RDMA timing; this package demonstrates the same protocol working
// end-to-end outside the simulator — including the protection-key check
// the paper's driver enforces in the RNIC.
//
// Protocol v2 (see wire.go for the framing) is pipelined: one connection
// carries many tagged in-flight requests with out-of-order completions,
// doorbell batch frames, a PING health op and a DRAINING handshake for
// graceful shutdown. Client is its endpoint; Server its memory-node side.
package transport

// Backing adapts a Client into the backing interface a DiLOS computing
// node expects (fabric.Store + page-range allocation): with it, a
// simulated LibOS keeps every one of its pages on a real memnoded daemon —
// the data path crosses the network, the timing stays modelled. IO errors
// surface through fabric.Op.Err, where the paging stack's retry and
// failover machinery handles them like any injected fault.
type Backing struct {
	C    *Client
	PKey uint32
}

// NewBacking dials a memnoded daemon and wraps it as a Backing.
func NewBacking(addr string, pkey uint32, opts ...Option) (*Backing, error) {
	c, err := Dial(addr, pkey, opts...)
	if err != nil {
		return nil, err
	}
	return &Backing{C: c, PKey: pkey}, nil
}

// ReadAt implements fabric.Store.
func (b *Backing) ReadAt(off uint64, p []byte) error {
	return b.C.Read(off, p)
}

// WriteAt implements fabric.Store.
func (b *Backing) WriteAt(off uint64, p []byte) error {
	return b.C.Write(off, p)
}

// AllocRange reserves contiguous pages on the daemon.
func (b *Backing) AllocRange(pages uint64) (uint64, error) {
	return b.C.Alloc(uint32(pages))
}

// Key returns the protection key presented on every request.
func (b *Backing) Key() uint32 { return b.PKey }
