package metrics

// Wire-traffic accounting: how many bytes and frames a run actually pushed
// onto (and read off) its links, broken down by value kind, plus the
// envelope coalescing and compression wins of the batched wire codec. The
// transports report here, under the collector's mutex: this is the one
// count of wire bytes.

// OnWireSend attributes one encoded protocol message of n pre-compression
// body bytes to its value kind. It counts frames and per-kind bytes only;
// the authoritative byte total comes from OnWireFlush, so per-kind sums and
// BytesOut differ by exactly the envelope overhead and compression delta.
func (c *Collector) OnWireSend(kind byte, n int) {
	if !c.lock() {
		return
	}
	defer c.mu.Unlock()
	c.counts[WireFramesOut]++
	if c.byKindOut == nil {
		c.byKindOut = make(map[byte]uint64)
	}
	c.byKindOut[kind] += uint64(n)
}

// OnWireRecv attributes one decoded protocol message of n body bytes to its
// value kind (the receive-side mirror of OnWireSend).
func (c *Collector) OnWireRecv(kind byte, n int) {
	if !c.lock() {
		return
	}
	defer c.mu.Unlock()
	c.counts[WireFramesIn]++
	if c.byKindIn == nil {
		c.byKindIn = make(map[byte]uint64)
	}
	c.byKindIn[kind] += uint64(n)
}

// OnWireFlush records one envelope handed to the kernel in one write: its
// total wire size (length prefix included — the ground-truth byte count),
// and, when it was compressed, the raw vs compressed payload sizes. (An
// envelope read is one Add to WireBytesIn.)
func (c *Collector) OnWireFlush(wireBytes, rawLen, compLen int) {
	if !c.lock() {
		return
	}
	defer c.mu.Unlock()
	c.counts[WireEnvelopesOut]++
	c.counts[WireBytesOut] += uint64(wireBytes)
	if compLen > 0 {
		c.counts[WireRawOut] += uint64(rawLen)
		c.counts[WireCompressedOut] += uint64(compLen)
	}
}

// WireStats is the immutable snapshot of a run's wire traffic.
type WireStats struct {
	// BytesOut/BytesIn are total wire bytes written/read, including all
	// framing overhead.
	BytesOut, BytesIn uint64
	// FramesOut/FramesIn count protocol messages (batch sub-frames count
	// individually).
	FramesOut, FramesIn uint64
	// EnvelopesOut/EnvelopesIn count wire envelopes — each outbound
	// envelope is one buffered write, so FramesOut/EnvelopesOut is the
	// frames-per-write coalescing factor.
	EnvelopesOut, EnvelopesIn uint64
	// ByKindOut/ByKindIn break the byte totals down by value kind.
	ByKindOut, ByKindIn map[byte]uint64
	// RawPayloadOut/CompressedPayloadOut are the pre-/post-compression
	// payload sizes of the envelopes that were actually compressed.
	RawPayloadOut, CompressedPayloadOut uint64
}

// FramesPerEnvelope is the send-side coalescing factor: protocol messages
// per envelope write.
func (w WireStats) FramesPerEnvelope() float64 {
	if w.EnvelopesOut == 0 {
		return 0
	}
	return float64(w.FramesOut) / float64(w.EnvelopesOut)
}

// CompressionRatio is raw/compressed payload bytes over the compressed
// envelopes (≥1 when compression pays; 0 when nothing was compressed).
func (w WireStats) CompressionRatio() float64 {
	if w.CompressedPayloadOut == 0 {
		return 0
	}
	return float64(w.RawPayloadOut) / float64(w.CompressedPayloadOut)
}
