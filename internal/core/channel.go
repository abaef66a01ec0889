package core

import (
	"fmt"

	"cellpilot/internal/cellbe"
	"cellpilot/internal/sim"
)

// ChannelType is the paper's Table I taxonomy, derived from where the two
// endpoints live. It selects the transfer protocol and is transparent to
// the programmer.
type ChannelType int

// Channel types (paper Table I).
const (
	// Type1: PPE or non-Cell ↔ remote PPE or non-Cell — plain MPI.
	Type1 ChannelType = iota + 1
	// Type2: PPE ↔ local SPE — local MPI to Co-Pilot + mailbox + EA window.
	Type2
	// Type3: PPE or non-Cell ↔ remote SPE — MPI to the remote Co-Pilot.
	Type3
	// Type4: SPE ↔ local SPE — Co-Pilot memcpy between EA windows, no MPI.
	Type4
	// Type5: SPE ↔ remote SPE — two Co-Pilots relaying via MPI.
	Type5
)

// String implements fmt.Stringer.
func (t ChannelType) String() string { return fmt.Sprintf("type%d", int(t)) }

// resolveType classifies a channel by its endpoints' placement, exactly
// reproducing Table I. Two regular processes on the same node still use
// the MPI path (type 1); the paper's type 1/2 split is about SPE
// involvement, not node distance.
func resolveType(from, to *Process) ChannelType {
	fs, ts := from.IsSPE(), to.IsSPE()
	sameNode := from.nodeID == to.nodeID
	switch {
	case !fs && !ts:
		return Type1
	case fs && ts:
		if sameNode {
			return Type4
		}
		return Type5
	default: // exactly one SPE endpoint
		if sameNode {
			return Type2
		}
		return Type3
	}
}

// Channel is a unidirectional point-to-point message conduit bound to a
// process pair at configuration time. Only From may write and only To may
// read; Pilot enforces the configured architecture at run time.
type Channel struct {
	app  *App
	id   int
	name string
	From *Process
	To   *Process
	typ  ChannelType

	// fault, once set, poisons the channel: every subsequent operation on
	// it fails with a ChannelFault derived from this one (sticky; set by
	// App.failChannel when an endpoint or its Co-Pilot dies, or when a
	// hard-deadline operation dies mid-protocol).
	fault *ChannelFault

	// flow caches the channel's flow classification (key + hop lists),
	// computed lazily at first delivery (flow.go). Nil until then.
	flow *chanFlow

	// backlog is the in-flight operation count: writes completed but not
	// yet matched by a completed read. backlogHigh is its high-water mark,
	// the channel's congestion watermark. App.record keeps both, whatever
	// sinks are attached.
	backlog, backlogHigh int
}

// Fault reports the poisoning fault, or nil while the channel is healthy.
func (c *Channel) Fault() *ChannelFault { return c.fault }

// ID reports the channel id.
func (c *Channel) ID() int { return c.id }

// Type reports the resolved channel type (Table I).
func (c *Channel) Type() ChannelType { return c.typ }

// tag is the MPI tag carrying this channel's payloads.
func (c *Channel) tag() int { return userTagBase + c.id }

// String implements fmt.Stringer.
func (c *Channel) String() string {
	return fmt.Sprintf("channel %d (%s: %s -> %s)", c.id, c.typ, c.From, c.To)
}

// userTagBase keeps channel tags clear of the MPI collectives' tag space.
const userTagBase = 1000

// BundleKind is the purpose a bundle is created for.
type BundleKind int

// Bundle kinds (Pilot V1.2 bundle operations).
const (
	// BundleBroadcast: the common endpoint writes once, every reader gets it.
	BundleBroadcast BundleKind = iota
	// BundleGather: every writer contributes, the common endpoint collects.
	BundleGather
	// BundleSelect: the common endpoint waits for any channel to have data.
	BundleSelect
)

// String implements fmt.Stringer.
func (k BundleKind) String() string {
	switch k {
	case BundleBroadcast:
		return "broadcast"
	case BundleGather:
		return "gather"
	case BundleSelect:
		return "select"
	case BundleScatter:
		return "scatter"
	case BundleReduce:
		return "reduce"
	default:
		return fmt.Sprintf("bundle(%d)", int(k))
	}
}

// Bundle is a set of channels with a common endpoint, created for one
// specific collective usage. As in the paper, bundles are an MPMD
// construct: only the common endpoint calls the bundle operation; the
// other ends use plain Read/Write on their member channel.
type Bundle struct {
	app    *App
	id     int
	name   string
	kind   BundleKind
	common *Process
	chans  []*Channel
}

// ID reports the bundle id.
func (b *Bundle) ID() int { return b.id }

// Kind reports the declared usage.
func (b *Bundle) Kind() BundleKind { return b.kind }

// Channels returns the member channels in creation order.
func (b *Bundle) Channels() []*Channel { return b.chans }

// Common returns the common endpoint process.
func (b *Bundle) Common() *Process { return b.common }

// wire header: every Pilot payload carries (format signature, payload
// size) so reader/writer mismatches abort with a diagnostic instead of
// corrupting data.
const hdrSize = 8

func putHeader(sig uint32, size int) []byte {
	var h [hdrSize]byte
	h[0] = byte(sig >> 24)
	h[1] = byte(sig >> 16)
	h[2] = byte(sig >> 8)
	h[3] = byte(sig)
	h[4] = byte(size >> 24)
	h[5] = byte(size >> 16)
	h[6] = byte(size >> 8)
	h[7] = byte(size)
	return h[:]
}

func parseHeader(h []byte) (sig uint32, size int) {
	sig = uint32(h[0])<<24 | uint32(h[1])<<16 | uint32(h[2])<<8 | uint32(h[3])
	size = int(uint32(h[4])<<24 | uint32(h[5])<<16 | uint32(h[6])<<8 | uint32(h[7]))
	return sig, size
}

// SPE request descriptors travel over the 32-bit mailboxes as four words:
// op|chan, local-store address, payload size, format signature.
type speOpcode uint32

const (
	opWrite speOpcode = 1
	opRead  speOpcode = 2
)

func reqWord0(op speOpcode, chanID int) uint32 {
	if chanID < 0 || chanID >= 1<<28 {
		panic(fmt.Sprintf("core: channel id %d does not fit a mailbox word", chanID))
	}
	return uint32(op)<<28 | uint32(chanID)
}

func parseWord0(w uint32) (speOpcode, int) {
	return speOpcode(w >> 28), int(w & (1<<28 - 1))
}

// speReq is a decoded SPE mailbox request held by a Co-Pilot.
type speReq struct {
	op     speOpcode
	ch     *Channel
	spe    *cellbe.SPE
	proc   *Process
	lsAddr uint32
	size   int
	sig    uint32

	// Observability bookkeeping (zero-valued when no sink is attached).
	xfer     int64    // correlating transfer id; 0 for unresolved reads
	postedAt sim.Time // when the SPE stub began posting the descriptor
	decodeAt sim.Time // when the Co-Pilot decoded it
	svcEnd   sim.Time // when decode/dispatch service finished

	// Chunk-stream state (transfer.go); nil outside the chunked path.
	stream  *streamSend
	rstream *streamRecv
}
