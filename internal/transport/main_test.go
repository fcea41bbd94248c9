package transport

import (
	"os"
	"testing"
)

// TestMain poisons freed blocks for the whole package: a tuple read after
// its reference was released, or a block recycled while a tuple still
// aliases it, then fails the byte comparisons these tests already make
// instead of passing on stale but intact bytes.
func TestMain(m *testing.M) {
	PoisonFreedBlocks()
	os.Exit(m.Run())
}
