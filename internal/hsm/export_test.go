package hsm

// StagedEntries returns copies of the staged attributions in path order.
func (s *Service) StagedEntries() []stagedEntry {
	out := make([]stagedEntry, 0, len(s.staged))
	for _, path := range sortedKeys(s.staged) {
		out = append(out, *s.staged[path])
	}
	return out
}
