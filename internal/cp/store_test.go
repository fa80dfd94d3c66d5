package cp

import "testing"

func TestStoreSetGet(t *testing.T) {
	s := NewStore()
	a := s.alloc(-1, 10, 20)
	if s.get(a) != 10 || s.get(a+1) != 20 {
		t.Fatal("alloc/get broken")
	}
	s.set(a, 15)
	if s.get(a) != 15 {
		t.Fatal("set at root level failed")
	}
	if len(s.trail) != 0 {
		t.Fatal("root-level set must not trail")
	}
}

func TestStorePushPop(t *testing.T) {
	s := NewStore()
	a := s.alloc(-1, 1)
	s.Push()
	s.set(a, 2)
	s.Push()
	s.set(a, 3)
	if s.get(a) != 3 {
		t.Fatal("nested set failed")
	}
	s.Pop()
	if s.get(a) != 2 {
		t.Fatalf("pop restored %d, want 2", s.get(a))
	}
	s.Pop()
	if s.get(a) != 1 {
		t.Fatalf("pop restored %d, want 1", s.get(a))
	}
	if s.Level() != 0 {
		t.Fatal("level not back to 0")
	}
}

func TestStoreMultipleWritesSameLevel(t *testing.T) {
	s := NewStore()
	a := s.alloc(-1, 1)
	s.Push()
	s.set(a, 2)
	s.set(a, 3)
	s.set(a, 3) // no-op write must not corrupt the trail
	s.Pop()
	if s.get(a) != 1 {
		t.Fatalf("got %d, want 1", s.get(a))
	}
}

func TestStorePopAtRootPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop at root did not panic")
		}
	}()
	NewStore().Pop()
}
