package runtime

import (
	"os"
	"testing"

	"streambalance/internal/transport"
)

// TestMain poisons freed receive blocks (see transport.PoisonFreedBlocks), so
// that the byte-identical equivalence suites catch a payload read after its
// release on either TCP hop.
func TestMain(m *testing.M) {
	transport.PoisonFreedBlocks()
	os.Exit(m.Run())
}
