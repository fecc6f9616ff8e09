package frontend

import (
	"repro/internal/isa"
	"repro/internal/ittage"
	"repro/internal/tage"
)

// PoisonSlots fills every FTQ slot and the current-block slot of a
// fresh front end with garbage in every field, as squashed blocks
// would leave them: valid-looking predictions for a branch that is not
// there, a never-ready cycle, resident lines the block does not cover,
// and a predicted-taken indirect terminator.
func PoisonSlots(f *FrontEnd) {
	tp := tage.New(f.cfg.TAGE).Predict(0xbad0)
	tp.Taken = true
	ip := ittage.New(f.cfg.ITTAGE).Predict(0xbad0)
	ip.Target, ip.Valid = 0xbad0, true
	poison := func(b *Block) {
		*b = Block{
			Start: 0xbad0, End: 0xbad8, BranchPC: 0xbad4, Class: isa.ClassIndirect, Target: 0xbad0,
			TakenPred: true, ViaSBB: true, EntryIsTarget: true, WrongPath: true,
			ReadyAt: ^uint64(0), NLines: 3,
			Conds:    append(b.Conds[:0], CondRec{PC: 0xbad2, Pred: tp}),
			TermCond: tp, TermInd: ip,
		}
		for i := range b.Lines {
			b.Lines[i] = LineFetch{Addr: 0xbac0 + uint64(i)*64, WasResident: true}
		}
	}
	for !f.q.Full() {
		poison(f.q.Reserve())
	}
	f.q.Reset()
	poison(&f.cur)
}
