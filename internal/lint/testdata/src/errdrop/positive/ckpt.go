package positive

// The shapes of the durability APIs (ckpt.Sink.PutShard, a Close,
// ckpt.Load): a dropped error here means a checkpoint that silently never
// became durable, or a teardown whose failure is invisible — exactly the
// losses the restart path cannot survive.

type rankState struct{}

type sink struct{}

func (sink) PutShard(seq, iter uint64, p int, rs *rankState) error { return nil }

type client struct{}

func (client) Close() error { return nil }

func load(path string) (*rankState, error) { return nil, nil }

// Snapshot drops the shard-write error: the solve continues believing
// the checkpoint is durable.
func Snapshot(s sink, rs *rankState) {
	s.PutShard(1, 10, 4, rs) // WANT errdrop
}

// Teardown drops both the close and the restore-load error.
func Teardown(c client, path string) {
	c.Close()  // WANT errdrop
	load(path) // WANT errdrop
}
