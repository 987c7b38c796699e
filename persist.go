package spatialhist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"spatialhist/internal/core"
	"spatialhist/internal/euler"
)

// Summary persistence: a small container around the euler histogram format
// that also records which algorithm to rebuild. A saved summary is a few
// MB and loads in milliseconds, so a browsing service can start without
// the original objects.
//
//	magic  [8]byte "SPSUM002"
//	algo   uint8   (1 = S-EulerApprox, 2 = EulerApprox, 3 = M-EulerApprox)
//	m      uint32  (number of histograms; 1 unless M-EulerApprox)
//	areas  m × float64 (M-EulerApprox only)
//	crc    uint32  crc32 (IEEE) over the algo, m and areas bytes
//	hists  m × euler histogram payloads, one per area group
//
// The header checksum exists because every header byte steers how the
// megabytes after it are interpreted: a flipped area threshold or
// histogram count would otherwise decode into a structurally valid but
// silently wrong summary. Histogram payloads carry their own structural
// check (Σ buckets == count) inside euler.Read.
var summaryMagic = [8]byte{'S', 'P', 'S', 'U', 'M', '0', '0', '2'}

// summaryMagicV1 is the pre-checksum format, recognized only to name the
// version mismatch precisely.
var summaryMagicV1 = [8]byte{'S', 'P', 'S', 'U', 'M', '0', '0', '1'}

// Save serializes the summary.
func (s *Summary) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(summaryMagic[:]); err != nil {
		return err
	}
	spec, hists, ok := core.SpecOf(s.est)
	if !ok {
		return fmt.Errorf("spatialhist: summaries over %T cannot be saved", s.est)
	}
	header := make([]byte, 0, 5+8*len(spec.Areas))
	header = append(header, uint8(spec.Algo))
	header = binary.LittleEndian.AppendUint32(header, uint32(len(hists)))
	for _, a := range spec.Areas {
		header = binary.LittleEndian.AppendUint64(header, math.Float64bits(a))
	}
	if _, err := bw.Write(header); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, crc32.ChecksumIEEE(header)); err != nil {
		return err
	}
	var below *euler.Histogram // the file holds plane k less plane k−1
	for _, h := range hists {
		if err := h.WriteAbove(bw, below); err != nil {
			return err
		}
		below = h
	}
	return bw.Flush()
}

// Load deserializes a summary written by Save.
func Load(r io.Reader) (*Summary, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("spatialhist: reading magic: %w", err)
	}
	if m == summaryMagicV1 {
		return nil, fmt.Errorf("spatialhist: summary written by the pre-checksum %q format; re-save it with this release to upgrade to %q",
			summaryMagicV1, summaryMagic)
	}
	if m != summaryMagic {
		return nil, fmt.Errorf("spatialhist: bad magic %q", m)
	}
	// The fixed header prefix: algo tag plus histogram count. Raw bytes are
	// retained so the checksum can be verified once the area table's length
	// is known.
	header := make([]byte, 5)
	if _, err := io.ReadFull(br, header); err != nil {
		return nil, fmt.Errorf("spatialhist: reading header: %w", err)
	}
	// Validate the tag before trusting anything downstream of it: an
	// unknown byte here means the rest of the stream cannot be interpreted,
	// so failing late (after parsing megabytes of histograms) would bury
	// the actual problem under a misleading decode error.
	spec := core.Spec{Algo: core.Algo(header[0])}
	if spec.Algo < core.AlgoSEuler || spec.Algo > core.AlgoMEuler {
		return nil, fmt.Errorf("spatialhist: unknown algorithm tag %d (want %d=S-EulerApprox, %d=EulerApprox or %d=M-EulerApprox)",
			spec.Algo, core.AlgoSEuler, core.AlgoEuler, core.AlgoMEuler)
	}
	count := binary.LittleEndian.Uint32(header[1:5])
	const maxHists = 64
	if count == 0 || count > maxHists {
		return nil, fmt.Errorf("spatialhist: unreasonable histogram count %d", count)
	}
	if spec.Algo != core.AlgoMEuler && count != 1 {
		return nil, fmt.Errorf("spatialhist: single-histogram algorithm with %d histograms", count)
	}
	if spec.Algo == core.AlgoMEuler {
		raw := make([]byte, 8*count)
		if n, err := io.ReadFull(br, raw); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil, fmt.Errorf("spatialhist: M-EulerApprox area table truncated: header promises %d thresholds, stream ends after %d", count, n/8)
			}
			return nil, fmt.Errorf("spatialhist: reading area table: %w", err)
		}
		header = append(header, raw...)
		spec.Areas = make([]float64, count)
		for i := range spec.Areas {
			spec.Areas[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("spatialhist: %w", err)
	}
	var storedCRC uint32
	if err := binary.Read(br, binary.LittleEndian, &storedCRC); err != nil {
		return nil, fmt.Errorf("spatialhist: reading header checksum: %w", err)
	}
	if got := crc32.ChecksumIEEE(header); got != storedCRC {
		return nil, fmt.Errorf("spatialhist: header checksum mismatch (stored %08x, computed %08x): the algo/count/area bytes are corrupt", storedCRC, got)
	}
	hists := make([]*euler.Histogram, count)
	var below *euler.Histogram // plane k is group k's histogram over plane k−1
	for i := range hists {
		h, err := euler.ReadAbove(br, below)
		if err != nil {
			return nil, fmt.Errorf("spatialhist: histogram %d: %w", i, err)
		}
		hists[i], below = h, h
	}
	est, err := spec.FromHistograms(hists)
	if err != nil {
		return nil, fmt.Errorf("spatialhist: %w", err)
	}
	return &Summary{est: est, g: est.Grid()}, nil
}

// SaveFile writes the summary to a file.
func (s *Summary) SaveFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return s.Save(f)
}

// LoadFile reads a summary from a file.
func LoadFile(path string) (*Summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
