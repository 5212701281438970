package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"repro/internal/coalesce"
	"repro/internal/ir"
)

// Memo persistence: a versioned binary stream so a daemon restart does not
// start from a cold memo. The stream opens with the magic and the version
// byte; every record after it is one entry, written oldest→newest so
// reloading rebuilds the LRU recency order:
//
//	record  = len crc payload        len: uvarint; crc: CRC32-C of payload, 4 bytes LE
//	payload = fpHi fpLo opt inVars stats statuses func
//
// fpHi and fpLo are 8 bytes little-endian; opt and inVars are uvarints;
// stats is every counter of Stats but the four phase nanos (Store zeroes
// them) as varints, RemainingWeight as 8 bytes of float64 bits; statuses
// is a uvarint count and one byte per status; func is ir.AppendBinary's
// encoding and runs to the end of the payload. That is the form the memo
// holds each entry in, so Snapshot writes the stored bytes as they are and
// LoadSnapshot keeps a copy of each record's.
//
// The format shares the bench/store posture toward corruption: a torn tail
// or a damaged record is skipped and counted, never fatal — losing one
// cached translation costs a re-compute, losing the whole file on every
// crash would make persistence useless. The checksum is what finds the
// damage; a record that passes it must still decode strictly and pass
// ir.Verify.

// memoMagic and memoVersion open every snapshot. Bump the version on any
// incompatible change; Load rejects mismatches outright (a wrong-format
// file is operator error, not tail corruption).
const (
	memoMagic   = "ssad-memo"
	memoVersion = 2
)

// memoV1Prefix opens every version-1 (NDJSON) snapshot; Load names the
// version when it refuses one.
const memoV1Prefix = `{"format":"ssad-memo"`

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Snapshot writes every entry to w in the versioned binary form. Entries
// stream oldest-first so Load restores recency. The memo lock is held only
// while the entry list is collected: entries are immutable after Store, so
// framing and writing run unlocked, and a slow writer never stalls Lookup
// or Store.
func (m *Memo) Snapshot(w io.Writer) error {
	m.mu.Lock()
	entries := make([]*MemoEntry, 0, m.lru.Len())
	for el := m.lru.Back(); el != nil; el = el.Prev() {
		entries = append(entries, el.Value.(*MemoEntry))
	}
	m.mu.Unlock()

	bw := bufio.NewWriter(w)
	bw.WriteString(memoMagic)
	bw.WriteByte(memoVersion)
	var payload []byte
	var frame [binary.MaxVarintLen64 + 4]byte
	for _, e := range entries {
		payload = e.appendPayload(payload[:0])
		n := binary.PutUvarint(frame[:], uint64(len(payload)))
		binary.LittleEndian.PutUint32(frame[n:], crc32.Checksum(payload, castagnoli))
		bw.Write(frame[:n+4]) // a failed write sticks; the next one reports it
		if _, err := bw.Write(payload); err != nil {
			return fmt.Errorf("memo snapshot: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("memo snapshot: %w", err)
	}
	return nil
}

// appendPayload appends the entry's record payload to dst.
func (e *MemoEntry) appendPayload(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, e.key.FPHi)
	dst = binary.LittleEndian.AppendUint64(dst, e.key.FPLo)
	dst = binary.AppendUvarint(dst, e.key.Opt)
	dst = binary.AppendUvarint(dst, uint64(e.inVars))
	for _, p := range statsCounters(&e.stats) {
		dst = binary.AppendVarint(dst, int64(*p))
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.stats.RemainingWeight))
	dst = binary.AppendUvarint(dst, uint64(len(e.statuses)))
	for _, s := range e.statuses {
		dst = append(dst, byte(s))
	}
	return append(dst, e.out...)
}

// LoadSnapshot reads a Snapshot stream into the memo, returning how many
// entries were installed and how many damaged records were skipped. A
// missing, foreign or wrong-versioned header is an error; per-record damage
// (torn tail, checksum mismatch, entry that fails to decode or verify) is
// tolerated and counted. A read error ends the load with the error, after
// the entries before it were installed. Loaded entries respect the memo's
// bounds, so loading a snapshot from a larger memo simply evicts from the
// old tail. Every record is decoded into one reused function to be
// checked; the entry keeps a copy of the record's encoding.
func (m *Memo) LoadSnapshot(r io.Reader) (loaded, skipped int, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	if p, _ := br.Peek(len(memoV1Prefix)); string(p) == memoV1Prefix {
		return 0, 0, fmt.Errorf("memo load: version-1 snapshot, want version %d", memoVersion)
	}
	var hdr [len(memoMagic) + 1]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, 0, fmt.Errorf("memo load: reading header: %w", err)
	}
	if magic, version := string(hdr[:len(memoMagic)]), hdr[len(memoMagic)]; magic != memoMagic || version != memoVersion {
		return 0, 0, fmt.Errorf("memo load: header %q, want %q version %d", hdr, memoMagic, memoVersion)
	}
	var payload []byte
	check := ir.NewFunc("")
	for {
		var sum uint32
		payload, sum, err = readRecord(br, payload)
		switch err {
		case nil:
		case io.EOF:
			return loaded, skipped, nil
		case io.ErrUnexpectedEOF, errBadLength:
			// A torn tail, or a length that lost the record boundaries:
			// either way nothing after it can be framed.
			return loaded, skipped + 1, nil
		default:
			return loaded, skipped, fmt.Errorf("memo load: %w", err)
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			skipped++
		} else if e := decodeMemoEntry(payload, check); e == nil {
			skipped++
		} else {
			m.install(e)
			loaded++
		}
	}
}

var errBadLength = errors.New("record length overflows 64 bits")

// readRecord reads one record's payload into buf and returns it with the
// stored checksum. It returns io.EOF at a clean end of stream and
// io.ErrUnexpectedEOF when the stream ends inside a record. The payload
// grows only as bytes arrive, so a damaged length cannot make it allocate
// more than the stream holds.
func readRecord(br *bufio.Reader, buf []byte) ([]byte, uint32, error) {
	p, err := br.Peek(binary.MaxVarintLen64)
	if len(p) == 0 {
		return buf, 0, err
	}
	n, k := binary.Uvarint(p)
	switch {
	case k < 0:
		return buf, 0, errBadLength
	case k == 0 && err == io.EOF:
		return buf, 0, io.ErrUnexpectedEOF
	case k == 0:
		return buf, 0, err
	}
	br.Discard(k)
	var sum [4]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return buf, 0, unexpected(err)
	}
	buf = buf[:0]
	for uint64(len(buf)) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, int(min(n-uint64(len(buf)), uint64(max(len(buf), 4096)))))
		}
		m, err := io.ReadFull(br, buf[len(buf):int(min(uint64(cap(buf)), n))])
		buf = buf[:len(buf)+m]
		if err != nil {
			return buf, 0, unexpected(err)
		}
	}
	return buf, binary.LittleEndian.Uint32(sum[:]), nil
}

// unexpected turns an end of stream inside a record into io.ErrUnexpectedEOF.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// decodeMemoEntry decodes and validates one record payload, returning nil
// on any damage. The record's function is decoded into check, which only
// holds it for ir.Verify.
func decodeMemoEntry(p []byte, check *ir.Func) *MemoEntry {
	r := payloadReader{b: p}
	e := &MemoEntry{}
	e.key.FPHi = r.u64()
	e.key.FPLo = r.u64()
	e.key.Opt = r.uvarint()
	inVars := r.uvarint()
	for _, f := range statsCounters(&e.stats) {
		*f = int(r.varint())
	}
	e.stats.RemainingWeight = math.Float64frombits(r.u64())
	n := r.uvarint()
	if r.bad || n > uint64(len(r.b)) {
		return nil
	}
	if n > 0 {
		e.statuses = make([]coalesce.Status, n)
		for i, s := range r.b[:n] {
			e.statuses[i] = coalesce.Status(s)
		}
		r.b = r.b[n:]
	}
	if ir.DecodeBinaryInto(check, r.b) != nil || ir.Verify(check) != nil || inVars > uint64(len(check.Vars)) {
		return nil
	}
	e.out, e.inVars = bytes.Clone(r.b), int(inVars)
	return e
}

// payloadReader is a cursor over a record payload's leading fields. A read
// past the end or a malformed varint sets bad and returns zero.
type payloadReader struct {
	b   []byte
	bad bool
}

func (r *payloadReader) u64() uint64 {
	if len(r.b) < 8 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *payloadReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *payloadReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}
