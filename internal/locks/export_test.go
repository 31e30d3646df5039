package locks

// Patience is the queue head's patience in nanoseconds, for the
// virtual-time tests, which run outside the package.
const Patience = int64(patience)
