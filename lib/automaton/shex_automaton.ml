(* The lazy DFA lives in core ([Shex.Dfa]).  This alias keeps the
   benchmark's [Shex_automaton.Dfa] building; it goes with the next
   change to perfbench/. *)
module Dfa = Shex.Dfa
