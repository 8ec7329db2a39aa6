package ycsb

import (
	"testing"

	"repro/internal/leaktest"
)

func TestMain(m *testing.M) { leaktest.Main(m) }
