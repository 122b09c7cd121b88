package sim

// cellSet is the one owner of per-cell state for every consumer of cell
// records: MergeCells (file merges) and Ingest (the coordinator, its
// journal priming and its leases) both fold records into a cellSet, so the
// rule deciding which record of a cell counts is written once. The rule:
// the FIRST successful record in input order wins — a later success, even
// a re-run with a different wall time, never replaces it — and a success
// always replaces a failure. A failure never replaces anything.
//
// A cellSet is not safe for concurrent use; Ingest guards it with its own
// mutex.
type cellSet struct {
	order    []string       // expected cell IDs in grid order
	index    map[string]int // cell ID → position in order
	best     []CellRecord   // best record per expected cell, by position
	held     []bool         // whether best[i] holds a record
	received int            // cells with a successful record
	failed   int            // cells whose only records carry errors
	dups     int            // records dropped: the cell already had a record they cannot replace
	replaced int            // failures replaced by a later success
	unknown  int            // records foreign to the expected grid
}

// cellVerdict is what adding one record did to a cellSet.
type cellVerdict int

const (
	cellUnknown   cellVerdict = iota // not a cell of the expected grid; dropped
	cellDuplicate                    // the cell already holds a record this one cannot replace; dropped
	cellNew                          // the cell's first record
	cellReplaced                     // a success replacing the cell's failure
)

// newCellSet tracks the cells ids names, in that (grid) order.
func newCellSet(ids []string) *cellSet {
	index := make(map[string]int, len(ids))
	for i, id := range ids {
		index[id] = i
	}
	return &cellSet{
		order: ids,
		index: index,
		best:  make([]CellRecord, len(ids)),
		held:  make([]bool, len(ids)),
	}
}

// add folds rec in by the first-success-wins rule. When rec changes the
// set (cellNew, cellReplaced), commit — if non-nil — runs first; an error
// from it is returned and leaves the set exactly as it was, so a record
// the caller could not persist is invisible to every count, coverage
// check and pending list. Unknown and duplicate records are counted and
// dropped without calling commit.
func (s *cellSet) add(rec CellRecord, commit func() error) (cellVerdict, error) {
	i, ok := s.index[rec.ID]
	if !ok {
		s.unknown++
		return cellUnknown, nil
	}
	v := cellNew
	if s.held[i] {
		if !(s.best[i].Err != "" && rec.Err == "") {
			s.dups++
			return cellDuplicate, nil
		}
		v = cellReplaced
	}
	if commit != nil {
		if err := commit(); err != nil {
			return v, err
		}
	}
	switch {
	case v == cellReplaced:
		s.replaced++
		s.failed--
		s.received++
	case rec.Err == "":
		s.received++
	default:
		s.failed++
	}
	s.best[i] = rec
	s.held[i] = true
	return v, nil
}

// expects reports whether id is a cell of the expected grid.
func (s *cellSet) expects(id string) bool {
	_, ok := s.index[id]
	return ok
}

// covered reports whether the i-th expected cell has a successful record.
func (s *cellSet) covered(i int) bool { return s.held[i] && s.best[i].Err == "" }

// success returns the winning successful record for id, if there is one.
func (s *cellSet) success(id string) (CellRecord, bool) {
	i, ok := s.index[id]
	if !ok || !s.covered(i) {
		return CellRecord{}, false
	}
	return s.best[i], true
}

// complete reports whether every expected cell is covered.
func (s *cellSet) complete() bool { return s.received == len(s.order) }

// pending returns the IDs of expected cells without a successful record,
// in grid order.
func (s *cellSet) pending() []string {
	var out []string
	for i, id := range s.order {
		if !s.covered(i) {
			out = append(out, id)
		}
	}
	return out
}

// records returns the best record of every cell that holds one — failures
// included — in grid order.
func (s *cellSet) records() []CellRecord {
	out := make([]CellRecord, 0, s.received+s.failed)
	for i := range s.order {
		if s.held[i] {
			out = append(out, s.best[i])
		}
	}
	return out
}
