(* A process that links none of the program's libraries and exits at
   once: the reference for the process start that set-up times (see
   Calib.start_reference_s). *)
