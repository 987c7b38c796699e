package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"spatialhist/internal/geom"
)

// Binary format:
//
//	magic   [8]byte  "SPHIST01"
//	nameLen uint32, name bytes
//	extent  4×float64 (XMin, YMin, XMax, YMax)
//	count   uint64
//	rects   count × 4×float64
//
// Everything is little-endian. The format is intentionally dumb: datasets
// are large, flat and rectangular, and a fixed-stride layout streams well.

var magic = [8]byte{'S', 'P', 'H', 'I', 'S', 'T', '0', '1'}

const maxNameLen = 1 << 16

// Write serializes the dataset to w.
func (d *Dataset) Write(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if len(d.Name) > maxNameLen {
		return fmt.Errorf("dataset: name too long (%d bytes)", len(d.Name))
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(d.Name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(d.Name); err != nil {
		return err
	}
	ext := [4]float64{d.Extent.XMin, d.Extent.YMin, d.Extent.XMax, d.Extent.YMax}
	if err := binary.Write(bw, binary.LittleEndian, ext); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(d.Rects))); err != nil {
		return err
	}
	buf := make([]byte, 32)
	for _, r := range d.Rects {
		binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(r.XMin))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(r.YMin))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(r.XMax))
		binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(r.YMax))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read deserializes a dataset from r.
func Read(r io.Reader) (*Dataset, error) { return read(r, 0) }

// read is Read with a payload bound: size is how many bytes r is known to
// hold (0 when unknown), and caps what the header's object count may
// pre-allocate.
func read(r io.Reader, size int64) (*Dataset, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("dataset: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("dataset: bad magic %q", m)
	}
	var nameLen uint32
	if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
		return nil, fmt.Errorf("dataset: reading name length: %w", err)
	}
	if nameLen > maxNameLen {
		return nil, fmt.Errorf("dataset: unreasonable name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("dataset: reading name: %w", err)
	}
	var ext [4]float64
	if err := binary.Read(br, binary.LittleEndian, &ext); err != nil {
		return nil, fmt.Errorf("dataset: reading extent: %w", err)
	}
	extent := geom.Rect{XMin: ext[0], YMin: ext[1], XMax: ext[2], YMax: ext[3]}
	if !extent.Valid() {
		return nil, fmt.Errorf("dataset: invalid extent %v", extent)
	}
	var count uint64
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("dataset: reading count: %w", err)
	}
	const maxCount = 1 << 31
	if count > maxCount {
		return nil, fmt.Errorf("dataset: unreasonable object count %d", count)
	}
	// Never trust the header alone: a crafted count must not pre-allocate
	// gigabytes (found by FuzzRead). A stream of unknown length grows the
	// slice as payload actually arrives; a file cannot hold more objects
	// than its size, so that many are allocated once instead of by
	// append-doubling (at 1M objects: 33 MB allocated instead of 186 MB).
	rects := make([]geom.Rect, 0, min(count, max(1<<16, uint64(size)/32)))
	buf := make([]byte, 32)
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("dataset: reading object %d: %w", i, err)
		}
		r := geom.Rect{
			XMin: math.Float64frombits(binary.LittleEndian.Uint64(buf[0:])),
			YMin: math.Float64frombits(binary.LittleEndian.Uint64(buf[8:])),
			XMax: math.Float64frombits(binary.LittleEndian.Uint64(buf[16:])),
			YMax: math.Float64frombits(binary.LittleEndian.Uint64(buf[24:])),
		}
		if !r.Valid() {
			return nil, fmt.Errorf("dataset: invalid object %d: %v", i, r)
		}
		rects = append(rects, r)
	}
	return &Dataset{Name: string(name), Extent: extent, Rects: rects}, nil
}

// Save writes the dataset to a file.
func (d *Dataset) Save(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return d.Write(f)
}

// Load reads a dataset from a file.
func Load(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return read(f, fi.Size())
}
