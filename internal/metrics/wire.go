package metrics

// Wire-traffic accounting: how many bytes and frames a run actually pushed
// onto (and read off) its links, broken down by value kind, plus the
// envelope coalescing and compression wins of the batched wire codec. The
// transports report here; the fabric keeps its own independent per-link
// counters, and the two are cross-checked by tests.

// WireTraffic accumulates wire-level byte and frame counts. It lives inside
// Collector, under the collector's mutex: the live transport's writer and
// reader goroutines report here concurrently.
type WireTraffic struct {
	bytesOut, bytesIn         uint64
	framesOut, framesIn       uint64
	envelopesOut, envelopesIn uint64
	byKindOut                 map[byte]uint64
	byKindIn                  map[byte]uint64
	rawOut, compOut           uint64
}

// OnWireSend attributes one encoded protocol message of n pre-compression
// body bytes to its value kind. It counts frames and per-kind bytes only;
// the authoritative byte total comes from OnWireFlush, so per-kind sums and
// BytesOut differ by exactly the envelope overhead and compression delta.
func (c *Collector) OnWireSend(kind byte, n int) {
	if !c.lock() {
		return
	}
	defer c.mu.Unlock()
	w := &c.wire
	w.framesOut++
	if w.byKindOut == nil {
		w.byKindOut = make(map[byte]uint64)
	}
	w.byKindOut[kind] += uint64(n)
}

// OnWireRecv attributes one decoded protocol message of n body bytes to its
// value kind (the receive-side mirror of OnWireSend).
func (c *Collector) OnWireRecv(kind byte, n int) {
	if !c.lock() {
		return
	}
	defer c.mu.Unlock()
	w := &c.wire
	w.framesIn++
	if w.byKindIn == nil {
		w.byKindIn = make(map[byte]uint64)
	}
	w.byKindIn[kind] += uint64(n)
}

// OnWireFlush records one envelope handed to the kernel in one write: its
// total wire size (length prefix included — the ground-truth byte count),
// and, when it was compressed, the raw vs compressed payload sizes.
func (c *Collector) OnWireFlush(wireBytes, rawLen, compLen int) {
	if !c.lock() {
		return
	}
	defer c.mu.Unlock()
	w := &c.wire
	w.envelopesOut++
	w.bytesOut += uint64(wireBytes)
	if compLen > 0 {
		w.rawOut += uint64(rawLen)
		w.compOut += uint64(compLen)
	}
}

// OnWireEnvelopeIn records one envelope of n wire bytes read off a
// connection (length prefix included).
func (c *Collector) OnWireEnvelopeIn(n int) {
	if c.lock() {
		c.wire.envelopesIn++
		c.wire.bytesIn += uint64(n)
		c.mu.Unlock()
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

func (w *WireTraffic) snapshot() WireStats {
	st := WireStats{
		BytesOut:             w.bytesOut,
		BytesIn:              w.bytesIn,
		FramesOut:            w.framesOut,
		FramesIn:             w.framesIn,
		EnvelopesOut:         w.envelopesOut,
		EnvelopesIn:          w.envelopesIn,
		RawPayloadOut:        w.rawOut,
		CompressedPayloadOut: w.compOut,
	}
	if len(w.byKindOut) > 0 {
		st.ByKindOut = make(map[byte]uint64, len(w.byKindOut))
		for k, v := range w.byKindOut {
			st.ByKindOut[k] = v
		}
	}
	if len(w.byKindIn) > 0 {
		st.ByKindIn = make(map[byte]uint64, len(w.byKindIn))
		for k, v := range w.byKindIn {
			st.ByKindIn[k] = v
		}
	}
	return st
}
