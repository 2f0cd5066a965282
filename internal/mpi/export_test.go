package mpi

// PendingRequests reports the number of posted requests that have not
// completed.
func (w *World) PendingRequests() int { return len(w.open) }

// ParkStats reports how many ranks RunActive has parked and how many of
// those have been woken again.
func (w *World) ParkStats() (parks, wakes int) { return w.parks, w.wakes }
