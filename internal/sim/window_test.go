package sim

import (
	"context"
	"slices"
	"testing"
	"time"
)

// windowTask is a task queued in a window: it records that it ran and
// whether it held a token, and gives that token back.
type windowTask struct {
	Entry
	w    *Window
	id   int
	ran  *[]int
	held *[]bool
}

func (t *windowTask) Run() {
	*t.ran = append(*t.ran, t.id)
	*t.held = append(*t.held, !t.Since.IsZero())
	if !t.Since.IsZero() {
		t.w.Put()
	}
}

// TestWindowQueueOrder: on the virtual clock, tasks started on a full
// window wait in its queue with no coroutine, and each returned token
// starts the oldest, ahead of a flow parked in Take; Close starts the
// rest holding no token, and Start on a closed window runs at once.
func TestWindowQueueOrder(t *testing.T) {
	v := NewVClock(1)
	clk := Virtual(v)
	var ran []int
	var held []bool
	v.Run(func() {
		w := NewWindow(clk, 1)
		if err := w.Take(context.Background()); err != nil {
			t.Fatal(err)
		}
		tasks := make([]*windowTask, 5)
		for i := range tasks {
			tasks[i] = &windowTask{w: w, id: i, ran: &ran, held: &held}
			tasks[i].Task = tasks[i]
		}
		grp := NewGroup(clk)
		grp.Go(func() {
			if w.Take(context.Background()) == nil {
				ran = append(ran, -1) // the flow
				w.Put()
			}
		})
		clk.Sleep(time.Microsecond) // the flow is parked in Take
		live := v.ngo
		for _, task := range tasks[:3] {
			w.Start(&task.Entry)
		}
		if v.ngo != live {
			t.Errorf("three queued tasks: %d live coroutines, want %d", v.ngo, live)
		}
		w.Put() // runs 0, 1 and 2 in turn, then wakes the flow
		grp.Wait()
		if err := w.Take(context.Background()); err != nil {
			t.Fatal(err)
		}
		w.Start(&tasks[3].Entry)
		w.Close() // starts 3 holding no token
		w.Start(&tasks[4].Entry)
		clk.Sleep(time.Microsecond)
		if w.Free() != 0 || w.Cap() != 1 {
			t.Errorf("%d of %d tokens free, want the test's one held", w.Free(), w.Cap())
		}
	})
	if !slices.Equal(ran, []int{0, 1, 2, -1, 3, 4}) || !slices.Equal(held, []bool{true, true, true, false, false}) {
		t.Errorf("ran %v (-1 the flow), tasks holding tokens %v; want 0, 1, 2, the flow, 3, 4, the first three holding one", ran, held)
	}
}
