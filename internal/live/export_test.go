package live

// PublishedRefs is the pin count of the published snapshot: the store's own
// reference plus one per reader that has not released yet.
func (s *Store) PublishedRefs() int64 { return s.snap.Load().refs.Load() }
