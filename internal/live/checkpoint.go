package live

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"spatialhist/internal/check/failpoint"
	"spatialhist/internal/euler"
)

// Checkpoint format: the store's builder state at a known WAL position,
// so a restart replays only the journal tail instead of the full history:
//
//	magic    [8]byte "SPCKPT01"
//	header   the store's config-pinning header (same bytes as the WAL's)
//	walOff   uint64  journal bytes consumed by this checkpoint
//	applied  uint64  mutations folded in (for status continuity)
//	hists    one euler histogram payload per partition
//
// The builders are reconstructed from the histograms with
// euler.BuilderFromHistogram — the exact inverse of Build — so a
// checkpointed store resumes mutating as if it had never stopped.
// Checkpoints are written to a temp file and renamed into place
// (SaveCheckpoint); a crash mid-write leaves the previous checkpoint intact.

var ckptMagic = [8]byte{'S', 'P', 'C', 'K', 'P', 'T', '0', '1'}

// errNoCheckpoint distinguishes "first start" from a real load failure.
var errNoCheckpoint = errors.New("live: no checkpoint")

// Checkpoint writes the store's current state to the configured
// CheckpointPath and makes the journal durable up to the recorded offset.
func (s *Store) Checkpoint() error {
	if s.cfg.CheckpointPath == "" {
		return errors.New("live: no CheckpointPath configured")
	}
	return s.writeCheckpoint(s.cfg.CheckpointPath)
}

// checkpointState captures the store's builder state at a consistent
// journal position. For a journaled store the offset is its WAL size,
// synced first so the recorded bytes are all on disk; for a journal-less
// store (a read replica) it is the shipped leader sequence, making a
// replica checkpoint self-contained: state plus the exact leader offset
// to resume tailing from.
func (s *Store) checkpointState() (hists []*euler.Histogram, walOff, applied int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		if err := s.wal.sync(); err != nil {
			return nil, 0, 0, fmt.Errorf("live: syncing WAL before checkpoint: %w", err)
		}
		walOff = s.wal.size
	} else {
		walOff = s.seq
	}
	hists = make([]*euler.Histogram, len(s.builders))
	for i, b := range s.builders {
		// Build resets the builder's dirty box, but the incremental
		// rebuild baseline is the last *published* snapshot, not this
		// checkpoint — restore the box or a later BuildFrom under-repairs.
		d := b.Dirty()
		hists[i] = b.Build()
		b.MarkDirty(d)
	}
	return hists, walOff, s.applied, nil
}

// writeCheckpointPayload renders the checkpoint wire form: magic, config
// header, offsets, one histogram per partition. Shared by the on-disk
// checkpoint writer and the replica bootstrap stream, so a shipped
// checkpoint is byte-compatible with a local one.
func writeCheckpointPayload(w io.Writer, header []byte, walOff, applied int64, hists []*euler.Histogram) error {
	if _, err := w.Write(ckptMagic[:]); err != nil {
		return err
	}
	if _, err := w.Write(header); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(walOff)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(applied)); err != nil {
		return err
	}
	for _, h := range hists {
		if err := h.Write(w); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) writeCheckpoint(path string) error {
	hists, walOff, applied, err := s.checkpointState()
	if err != nil {
		return err
	}
	return SaveCheckpoint(path, func(w io.Writer) error {
		return writeCheckpointPayload(w, s.header, walOff, applied, hists)
	})
}

// SaveCheckpoint is the one writer of checkpoint files: write streams the
// payload into a temp file beside path, through the FailpointCheckpointWrite
// site, which is fsynced and renamed into place. A crash or error
// mid-write leaves whatever was at path before — the previous checkpoint,
// or nothing. A store's own checkpoints and a follower's bootstrap from its
// leader's stream both go through it.
func SaveCheckpoint(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	bw := bufio.NewWriterSize(failpoint.Wrap(FailpointCheckpointWrite, tmp), 1<<20)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// readCheckpointConfig reads what opens every checkpoint — the magic and
// the config-pinning header — and returns the configuration it pins.
func readCheckpointConfig(r io.Reader) (Config, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return Config{}, fmt.Errorf("reading checkpoint magic: %w", err)
	}
	if magic != ckptMagic {
		return Config{}, fmt.Errorf("not a checkpoint (magic %q)", magic)
	}
	algo, g, areas, err := decodeHeader(r)
	if err != nil {
		return Config{}, err
	}
	cfg := Config{Grid: g, Algo: Algo(algo), Areas: areas}
	if err := cfg.validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// PeekCheckpoint reads just the configuration pinned in a checkpoint
// file: the grid, algorithm and area thresholds the state was built
// under. A follower bootstrapping from a shipped checkpoint derives its
// Config from this, so replica topology needs no out-of-band config
// distribution — the checkpoint is self-describing.
func PeekCheckpoint(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, err
	}
	defer f.Close()
	cfg, err := readCheckpointConfig(bufio.NewReader(f))
	if err != nil {
		return Config{}, fmt.Errorf("live: checkpoint %s: %w", path, err)
	}
	return cfg, nil
}

// loadCheckpoint reads a checkpoint written for the given header and
// reconstructs the per-partition builders. A missing file returns
// errNoCheckpoint; anything else wrong (foreign config, truncation,
// corrupt histograms) is a hard error — silently starting from the seed
// would fork history.
func loadCheckpoint(path string, header []byte, groups int) (builders []*euler.Builder, walOff int64, applied int64, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, 0, errNoCheckpoint
	}
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	cfg, err := readCheckpointConfig(br)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("live: checkpoint %s: %w", path, err)
	}
	if !bytes.Equal(cfg.header(), header) {
		return nil, 0, 0, fmt.Errorf("live: checkpoint %s was written for a different store configuration", path)
	}
	var off, app uint64
	if err := binary.Read(br, binary.LittleEndian, &off); err != nil {
		return nil, 0, 0, fmt.Errorf("live: reading checkpoint WAL offset: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &app); err != nil {
		return nil, 0, 0, fmt.Errorf("live: reading checkpoint mutation count: %w", err)
	}
	builders = make([]*euler.Builder, groups)
	for i := range builders {
		h, err := euler.Read(br)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("live: checkpoint partition %d: %w", i, err)
		}
		builders[i] = euler.BuilderFromHistogram(h)
	}
	return builders, int64(off), int64(app), nil
}
