package live

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// Replication surface of the store: the WAL doubles as a shipping log.
//
// A leader (a journaled store) exposes its record stream by byte offset —
// WALSegment — and its full state at a known offset — StreamCheckpoint.
// A follower is a journal-less store fed through ApplyReplicated: it
// bootstraps from a shipped checkpoint (whose walOff field is the leader
// offset the state embodies), then tails the leader's WAL, decoding
// shipped bytes with DecodeRecords — the decoder that replays a journal at
// Open — and applying each record through the exact code path a local
// mutation takes. Because replay is deterministic and the apply path is
// shared, a caught-up follower is bit-identical to its leader.
//
// The replication sequence ("seq") is the leader's WAL byte offset: the
// store's own WAL size on a leader, the shipped offset on a follower. A
// follower's checkpoint records its seq as walOff, so a restarted
// follower resumes tailing exactly where it stopped.

// Seq returns the store's replication sequence: the WAL byte offset its
// builders have consumed. On a leader this is the journal size (header
// included); on a follower, the shipped leader offset. Zero for a store
// that neither journals nor replicates.
func (s *Store) Seq() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// VisibleSeq returns the sequence the published snapshot is exact
// through — the staleness bound a reader of this store observes.
func (s *Store) VisibleSeq() int64 { return s.visible.Load() }

// ErrNotReplica is returned by ApplyReplicated on a journaled store:
// replicated records already live in the leader's journal, and journaling
// them again would fork the offset arithmetic.
var ErrNotReplica = errors.New("live: store has its own journal; ApplyReplicated is for journal-less replicas")

// ApplyReplicated applies one shipped record and advances the replication
// sequence to seq (the leader offset just past the record). It reports
// whether the record changed the store, exactly as the leader's own apply
// did — rejected records reject identically here, which is what keeps
// applied/rejected accounting in lockstep. Past the sequence step it is a
// local mutation: the same apply, counters and rebuild policy.
func (s *Store) ApplyReplicated(rec Record, seq int64) (bool, error) {
	s.mu.Lock()
	return s.commit(rec, s.follow(seq))
}

// follow is a replicated record's sequence step, with mu held: a replica
// takes the leader's offset instead of journaling.
func (s *Store) follow(seq int64) error {
	switch {
	case s.closed:
		return ErrClosed
	case s.wal != nil:
		return ErrNotReplica
	case seq < s.seq:
		return fmt.Errorf("live: replicated sequence %d behind applied sequence %d", seq, s.seq)
	}
	s.seq = seq
	return nil
}

// WALSegment returns up to max journal bytes starting at byte offset
// from, together with the journal's current size — the leader half of
// WAL-tail shipping. from == 0 means the start of the record stream
// (just past the header). Buffered records are flushed (not fsynced)
// first so every acknowledged mutation is shippable; the returned bytes
// may end mid-record, which DecodeRecords leaves for the next fetch.
func (s *Store) WALSegment(from int64, max int) (data []byte, size int64, err error) {
	s.mu.Lock()
	if s.wal == nil {
		s.mu.Unlock()
		return nil, 0, errors.New("live: store has no journal to ship")
	}
	if err := s.wal.flush(); err != nil {
		s.mu.Unlock()
		return nil, 0, fmt.Errorf("live: flushing WAL for shipping: %w", err)
	}
	size = s.wal.size
	f := s.wal.f
	s.mu.Unlock()

	headerLen := int64(len(s.header))
	if from == 0 {
		from = headerLen
	}
	if from < headerLen || from > size {
		return nil, size, fmt.Errorf("live: segment offset %d outside journal [%d, %d]", from, headerLen, size)
	}
	n := size - from
	if max > 0 && n > int64(max) {
		n = int64(max)
	}
	if n == 0 {
		return nil, size, nil
	}
	// The journal is append-only and everything below size is flushed, so
	// reading outside the mutex races with nothing.
	data = make([]byte, n)
	if _, err := f.ReadAt(data, from); err != nil {
		return nil, size, fmt.Errorf("live: reading journal segment: %w", err)
	}
	return data, size, nil
}

// StreamCheckpoint writes a checkpoint of the store's current state to w
// — the replica bootstrap stream. The payload is byte-compatible with an
// on-disk checkpoint: a follower saves it to its CheckpointPath and Opens
// from it, inheriting the embedded leader offset to resume tailing from.
// The journal (when present) is synced first, so the recorded offset
// never points past durable bytes.
func (s *Store) StreamCheckpoint(w io.Writer) error {
	hists, walOff, applied, err := s.checkpointState()
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if err := writeCheckpointPayload(bw, s.header, walOff, applied, hists); err != nil {
		return err
	}
	return bw.Flush()
}
